//! Elaboration: AST → flat [`Design`].
//!
//! Elaboration resolves parameters, flattens the module hierarchy (every
//! cell's variables get hierarchical names like `u0.alu.sum`), infers
//! expression widths using simplified Verilog context rules, lowers `case`
//! to `if` chains, and produces a list of *processes*:
//!
//! * **Comb** — continuous `assign`s and `always @(*)` blocks. Evaluated
//!   every time any input changes (full-cycle: every cycle).
//! * **Seq** — `always @(posedge clk)` blocks. All non-blocking
//!   assignments are computed from pre-edge values and committed together.
//!
//! Single-clock designs only: every `posedge` block is assumed to be
//! driven by the same global clock (checked to be a top-level input).
//!
//! Incomplete assignment in a comb process does **not** infer a latch:
//! written variables start at zero each evaluation unless the process
//! reads them before writing (which would be a combinational loop and is
//! rejected at graph construction).

use std::collections::HashMap;

use crate::ast::{BinOp, Dir, Expr, Item, LValue, Module, Sensitivity, SourceUnit, Stmt, UnOp};
use crate::error::{Error, Result};
use crate::value::BitVec;

/// Index of a variable in [`Design::vars`].
pub type VarId = usize;

/// A flattened design variable (signal or memory).
#[derive(Debug, Clone)]
pub struct Var {
    /// Hierarchical name, e.g. `cpu.alu.sum`.
    pub name: String,
    /// Packed width in bits.
    pub width: u32,
    /// Number of memory words; 0 for a plain signal.
    pub depth: u32,
    /// Written by a sequential process (flip-flop or memory).
    pub is_state: bool,
    /// Top-level input port.
    pub is_input: bool,
    /// Top-level output port.
    pub is_output: bool,
}

impl Var {
    /// `true` if this variable is an unpacked memory.
    pub fn is_memory(&self) -> bool {
        self.depth > 0
    }
}

/// Width-resolved expression.
#[derive(Debug, Clone)]
pub enum EExpr {
    Const(BitVec),
    /// Whole-variable read.
    Var(VarId),
    /// Memory word read `mem[idx]`.
    ReadMem {
        var: VarId,
        idx: Box<EExpr>,
    },
    Unary {
        op: UnOp,
        arg: Box<EExpr>,
        width: u32,
    },
    Binary {
        op: BinOp,
        a: Box<EExpr>,
        b: Box<EExpr>,
        width: u32,
    },
    /// `cond ? t : e`.
    Mux {
        cond: Box<EExpr>,
        t: Box<EExpr>,
        e: Box<EExpr>,
        width: u32,
    },
    /// `{parts\[0\], parts\[1\], ...}` — the first part is the most
    /// significant.
    Concat {
        parts: Vec<EExpr>,
        width: u32,
    },
    /// Constant part-select `arg[lsb +: width]`.
    Slice {
        arg: Box<EExpr>,
        lsb: u32,
        width: u32,
    },
    /// Dynamic single-bit select `arg[idx]` (1 bit wide).
    IndexBit {
        arg: Box<EExpr>,
        idx: Box<EExpr>,
    },
    /// Zero-extend or truncate to `width`.
    Resize {
        arg: Box<EExpr>,
        width: u32,
    },
}

impl EExpr {
    /// Result width in bits.
    pub fn width(&self) -> u32 {
        match self {
            EExpr::Const(v) => v.width(),
            EExpr::Var(_) => unreachable!("EExpr::Var width needs design; use Design::expr_width"),
            EExpr::ReadMem { .. } => unreachable!("use Design::expr_width"),
            EExpr::Unary { width, .. }
            | EExpr::Binary { width, .. }
            | EExpr::Mux { width, .. }
            | EExpr::Concat { width, .. }
            | EExpr::Slice { width, .. }
            | EExpr::Resize { width, .. } => *width,
            EExpr::IndexBit { .. } => 1,
        }
    }

    /// Visit every variable read by this expression.
    pub fn visit_reads(&self, f: &mut impl FnMut(VarId)) {
        match self {
            EExpr::Const(_) => {}
            EExpr::Var(v) => f(*v),
            EExpr::ReadMem { var, idx } => {
                f(*var);
                idx.visit_reads(f);
            }
            EExpr::Unary { arg, .. } | EExpr::Slice { arg, .. } | EExpr::Resize { arg, .. } => {
                arg.visit_reads(f)
            }
            EExpr::Binary { a, b, .. } => {
                a.visit_reads(f);
                b.visit_reads(f);
            }
            EExpr::Mux { cond, t, e, .. } => {
                cond.visit_reads(f);
                t.visit_reads(f);
                e.visit_reads(f);
            }
            EExpr::Concat { parts, .. } => parts.iter().for_each(|p| p.visit_reads(f)),
            EExpr::IndexBit { arg, idx } => {
                arg.visit_reads(f);
                idx.visit_reads(f);
            }
        }
    }

    /// Count expression nodes (cost-model input).
    pub fn count_ops(&self) -> usize {
        match self {
            EExpr::Const(_) | EExpr::Var(_) => 1,
            EExpr::ReadMem { idx, .. } => 1 + idx.count_ops(),
            EExpr::Unary { arg, .. } | EExpr::Slice { arg, .. } | EExpr::Resize { arg, .. } => {
                1 + arg.count_ops()
            }
            EExpr::Binary { a, b, .. } => 1 + a.count_ops() + b.count_ops(),
            EExpr::Mux { cond, t, e, .. } => 1 + cond.count_ops() + t.count_ops() + e.count_ops(),
            EExpr::Concat { parts, .. } => 1 + parts.iter().map(EExpr::count_ops).sum::<usize>(),
            EExpr::IndexBit { arg, idx } => 1 + arg.count_ops() + idx.count_ops(),
        }
    }
}

/// Assignment target of an elaborated statement.
#[derive(Debug, Clone)]
pub enum Target {
    /// Whole variable.
    Var(VarId),
    /// Constant slice `var[lsb +: width]`.
    Slice { var: VarId, lsb: u32, width: u32 },
    /// Dynamic single-bit `var[idx]`.
    DynBit { var: VarId, idx: EExpr },
    /// Memory word `mem[idx]`.
    Mem { var: VarId, idx: EExpr },
}

impl Target {
    /// The variable being (partially) written.
    pub fn var(&self) -> VarId {
        match self {
            Target::Var(v)
            | Target::Slice { var: v, .. }
            | Target::DynBit { var: v, .. }
            | Target::Mem { var: v, .. } => *v,
        }
    }
}

/// Elaborated statement.
#[derive(Debug, Clone)]
pub enum Stm {
    Assign {
        target: Target,
        rhs: EExpr,
    },
    If {
        cond: EExpr,
        then_s: Vec<Stm>,
        else_s: Vec<Stm>,
    },
}

/// Process kind: combinational or clocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessKind {
    Comb,
    Seq,
}

/// An elaborated process (one RTL-graph node before partitioning).
#[derive(Debug, Clone)]
pub struct Process {
    pub kind: ProcessKind,
    pub name: String,
    pub body: Vec<Stm>,
    /// Variables read before written (external inputs of the process).
    pub reads: Vec<VarId>,
    /// Variables written.
    pub writes: Vec<VarId>,
    pub line: u32,
}

/// A fully elaborated, flattened design.
#[derive(Debug, Clone)]
pub struct Design {
    /// Top module name.
    pub name: String,
    pub vars: Vec<Var>,
    pub processes: Vec<Process>,
    /// Top-level input ports (excluding the clock).
    pub inputs: Vec<VarId>,
    /// Top-level output ports.
    pub outputs: Vec<VarId>,
    /// The global clock input, if any sequential logic exists.
    pub clock: Option<VarId>,
}

impl Design {
    /// Width of an elaborated expression, resolving `Var` widths.
    pub fn expr_width(&self, e: &EExpr) -> u32 {
        match e {
            EExpr::Var(v) => self.vars[*v].width,
            EExpr::ReadMem { var, .. } => self.vars[*var].width,
            other => other.width(),
        }
    }

    /// Find a variable by hierarchical name.
    pub fn find_var(&self, name: &str) -> Option<VarId> {
        self.vars.iter().position(|v| v.name == name)
    }
}

/// What a name resolves to inside one module scope.
#[derive(Clone)]
enum Binding {
    Var(VarId),
    Param(BitVec),
}

/// Elaborator state.
pub struct Elaborator<'a> {
    unit: &'a SourceUnit,
    vars: Vec<Var>,
    processes: Vec<Process>,
    clock_candidates: Vec<String>,
}

impl<'a> Elaborator<'a> {
    pub fn new(unit: &'a SourceUnit) -> Self {
        Elaborator {
            unit,
            vars: Vec::new(),
            processes: Vec::new(),
            clock_candidates: Vec::new(),
        }
    }

    /// Elaborate with `top` as the root module.
    pub fn elaborate(mut self, top: &str) -> Result<Design> {
        let module = self
            .unit
            .find_module(top)
            .ok_or_else(|| Error::elab(format!("top module `{top}` not found")))?;
        let scope = self.instantiate(module, "", &HashMap::new())?;

        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        for port in &module.ports {
            let Some(Binding::Var(vid)) = scope.get(&port.name) else {
                return Err(Error::elab(format!(
                    "port `{}` has no declaration",
                    port.name
                )));
            };
            match port.dir {
                Dir::Input => {
                    self.vars[*vid].is_input = true;
                    inputs.push(*vid);
                }
                Dir::Output => {
                    self.vars[*vid].is_output = true;
                    outputs.push(*vid);
                }
            }
        }

        // Clock: a top-level input named like a clock that drives posedge
        // blocks. We accept the conventional names, preferring exact "clk".
        let mut clock = None;
        if self.processes.iter().any(|p| p.kind == ProcessKind::Seq) {
            for cand in ["clk", "clock", "clk_i", "aclk"] {
                if let Some(&Binding::Var(vid)) = scope.get(cand) {
                    clock = Some(vid);
                    break;
                }
            }
            if clock.is_none() {
                return Err(Error::elab(
                    "design has sequential logic but no top-level clock input (expected `clk`)",
                ));
            }
        }
        let inputs: Vec<VarId> = inputs.into_iter().filter(|v| Some(*v) != clock).collect();

        // Combinational memory writes would require latch-like semantics;
        // reject them (synthesizable designs write memories on clock edges).
        fn has_mem_write(stms: &[Stm]) -> bool {
            stms.iter().any(|s| match s {
                Stm::Assign {
                    target: Target::Mem { .. },
                    ..
                } => true,
                Stm::Assign { .. } => false,
                Stm::If { then_s, else_s, .. } => has_mem_write(then_s) || has_mem_write(else_s),
            })
        }
        for p in &self.processes {
            if p.kind == ProcessKind::Comb && has_mem_write(&p.body) {
                return Err(Error::elab(format!(
                    "process `{}`: combinational memory writes are not supported",
                    p.name
                )));
            }
        }

        // Writer analysis. One writer per variable is the rule, with one
        // relaxation: multiple *combinational* processes may drive the
        // same variable when each drives only constant slices and all the
        // slices are pairwise disjoint (the generate-for bus idiom). The
        // zero-based comb semantics make this sound: every writer clears
        // exactly the bits it owns at process entry.
        let mut writers: HashMap<VarId, Vec<usize>> = HashMap::new();
        for (pi, p) in self.processes.iter().enumerate() {
            for &w in &p.writes {
                writers.entry(w).or_default().push(pi);
            }
        }
        for (&vid, ws) in &writers {
            if ws.len() > 1 {
                let mut slices: Vec<(u32, u32, usize)> = Vec::new();
                for &pi in ws {
                    let p = &self.processes[pi];
                    if p.kind != ProcessKind::Comb {
                        return Err(Error::elab(format!(
                            "variable `{}` written by multiple processes including sequential `{}`",
                            self.vars[vid].name, p.name
                        )));
                    }
                    match write_shapes(&p.body).get(&vid) {
                        Some(WriteShape::Slices(list)) => {
                            for &(lsb, width) in list {
                                slices.push((lsb, width, pi));
                            }
                        }
                        _ => {
                            return Err(Error::elab(format!(
                            "variable `{}` written by multiple processes (`{}` writes it whole)",
                            self.vars[vid].name, p.name
                        )))
                        }
                    }
                }
                // Slices from *different* processes must not overlap.
                // (Within one process, later writes win — that is fine.)
                slices.sort_unstable();
                let mut max_end = 0u32;
                let mut max_proc = usize::MAX;
                for &(lsb, width, pi) in &slices {
                    if lsb < max_end && pi != max_proc {
                        return Err(Error::elab(format!(
                            "variable `{}`: processes `{}` and `{}` drive overlapping bit ranges",
                            self.vars[vid].name,
                            self.processes[max_proc].name,
                            self.processes[pi].name
                        )));
                    }
                    if lsb + width > max_end {
                        max_end = lsb + width;
                        max_proc = pi;
                    }
                }
            }
            if self.processes[ws[0]].kind == ProcessKind::Seq {
                self.vars[vid].is_state = true;
            }
            if self.vars[vid].is_input {
                return Err(Error::elab(format!(
                    "top-level input `{}` is driven inside the design",
                    self.vars[vid].name
                )));
            }
        }

        Ok(Design {
            name: top.to_string(),
            vars: self.vars,
            processes: self.processes,
            inputs,
            outputs,
            clock,
        })
    }

    /// Instantiate `module` under hierarchical `prefix`, returning its scope.
    fn instantiate(
        &mut self,
        module: &Module,
        prefix: &str,
        param_overrides: &HashMap<String, BitVec>,
    ) -> Result<HashMap<String, Binding>> {
        let mut scope: HashMap<String, Binding> = HashMap::new();

        // Resolve parameters in declaration order; each may reference earlier ones.
        for p in &module.params {
            let value = if let Some(ov) = param_overrides.get(&p.name) {
                if p.local {
                    return Err(Error::elab(format!(
                        "cannot override localparam `{}` of module `{}`",
                        p.name, module.name
                    )));
                }
                ov.clone()
            } else {
                self.const_eval(&p.value, &scope, &module.name)?
            };
            scope.insert(p.name.clone(), Binding::Param(value));
        }

        // Declare variables.
        for d in &module.decls {
            let width = match &d.range {
                Some((msb, lsb)) => {
                    let m = self.const_eval_u64(msb, &scope, &module.name)?;
                    let l = self.const_eval_u64(lsb, &scope, &module.name)?;
                    if l != 0 {
                        return Err(Error::elab(format!(
                            "variable `{}`: only [msb:0] packed ranges are supported",
                            d.name
                        )));
                    }
                    (m + 1) as u32
                }
                None => 1,
            };
            if width == 0 || width > 4096 {
                return Err(Error::elab(format!(
                    "variable `{}` has unsupported width {width}",
                    d.name
                )));
            }
            let depth = match &d.array {
                Some((lo, hi)) => {
                    let lo = self.const_eval_u64(lo, &scope, &module.name)?;
                    let hi = self.const_eval_u64(hi, &scope, &module.name)?;
                    if lo != 0 {
                        return Err(Error::elab(format!(
                            "memory `{}`: only [0:N] ranges are supported",
                            d.name
                        )));
                    }
                    (hi + 1) as u32
                }
                None => 0,
            };
            let full_name = if prefix.is_empty() {
                d.name.clone()
            } else {
                format!("{prefix}.{}", d.name)
            };
            let vid = self.vars.len();
            self.vars.push(Var {
                name: full_name,
                width,
                depth,
                is_state: false,
                is_input: false,
                is_output: false,
            });
            if scope.insert(d.name.clone(), Binding::Var(vid)).is_some() {
                return Err(Error::elab(format!(
                    "duplicate declaration of `{}` in `{}`",
                    d.name, module.name
                )));
            }
        }

        // Elaborate items.
        for item in &module.items {
            self.elab_item(item, &module.name, prefix, &scope, "")?;
        }
        Ok(scope)
    }

    /// Elaborate one module item. `gen` is the generate-block name prefix
    /// applied to instance names (empty outside generate loops).
    fn elab_item(
        &mut self,
        item: &Item,
        module_name: &str,
        prefix: &str,
        scope: &HashMap<String, Binding>,
        gen: &str,
    ) -> Result<()> {
        {
            match item {
                Item::GenFor {
                    var,
                    init,
                    cond,
                    step,
                    label,
                    items,
                    line,
                } => {
                    let mut value = self.const_eval(init, scope, "generate-for init")?;
                    let mut iters = 0u32;
                    loop {
                        let mut iter_scope = scope.clone();
                        iter_scope.insert(var.clone(), Binding::Param(value.clone()));
                        let keep = self.const_eval(cond, &iter_scope, "generate-for condition")?;
                        if !keep.any() {
                            break;
                        }
                        iters += 1;
                        if iters > 65536 {
                            return Err(Error::elab(format!(
                                "generate-for on `{var}` exceeds 65536 iterations (line {line})"
                            )));
                        }
                        let tag = match label {
                            Some(l) => format!("{l}_{}_", value.to_u64()),
                            None => format!("gen_{}_", value.to_u64()),
                        };
                        let gen_inner = format!("{gen}{tag}");
                        for inner in items {
                            self.elab_item(inner, module_name, prefix, &iter_scope, &gen_inner)?;
                        }
                        value = self.const_eval(step, &iter_scope, "generate-for step")?;
                    }
                }
                Item::Assign { lhs, rhs, line } => {
                    let name = format!(
                        "{prefix}{}{gen}assign@{line}",
                        if prefix.is_empty() { "" } else { "." }
                    );
                    self.lower_process(ProcessKind::Comb, name, *line, scope, |el, sc| {
                        let target = el.lower_lvalue(lhs, sc)?;
                        let twidth = el.target_width(&target);
                        let rhs = el.lower_expr(rhs, sc, Some(twidth))?;
                        Ok(vec![Stm::Assign { target, rhs }])
                    })?;
                }
                Item::Always { sens, body, line } => {
                    let kind = match sens {
                        Sensitivity::Comb => ProcessKind::Comb,
                        Sensitivity::Posedge(clk) => {
                            self.clock_candidates.push(clk.clone());
                            ProcessKind::Seq
                        }
                    };
                    let tag = if kind == ProcessKind::Comb {
                        "comb"
                    } else {
                        "ff"
                    };
                    let name = format!(
                        "{prefix}{}{gen}{tag}@{line}",
                        if prefix.is_empty() { "" } else { "." }
                    );
                    let blocking_expected = kind == ProcessKind::Comb;
                    self.lower_process(kind, name, *line, scope, |el, sc| {
                        el.lower_stmt(body, sc, blocking_expected)
                    })?;
                }
                Item::Instance {
                    module: child_name,
                    name,
                    params,
                    conns,
                    line,
                } => {
                    let child = self.unit.find_module(child_name).ok_or_else(|| {
                        Error::elab(format!(
                            "unknown module `{child_name}` instantiated as `{name}`"
                        ))
                    })?;
                    let mut overrides = HashMap::new();
                    for (pname, pexpr) in params {
                        let v = self.const_eval(pexpr, scope, module_name)?;
                        overrides.insert(pname.clone(), v);
                    }
                    let inst_name = format!("{gen}{name}");
                    let child_prefix = if prefix.is_empty() {
                        inst_name.clone()
                    } else {
                        format!("{prefix}.{inst_name}")
                    };
                    let child_scope = self.instantiate(child, &child_prefix, &overrides)?;

                    // Port connections.
                    for (port_name, conn) in conns {
                        let port = child
                            .ports
                            .iter()
                            .find(|p| &p.name == port_name)
                            .ok_or_else(|| {
                                Error::elab(format!(
                                    "module `{child_name}` has no port `{port_name}`"
                                ))
                            })?;
                        let Some(Binding::Var(port_var)) = child_scope.get(port_name).cloned()
                        else {
                            return Err(Error::elab(format!(
                                "port `{port_name}` is not a variable"
                            )));
                        };
                        let Some(conn_expr) = conn else { continue };
                        match port.dir {
                            Dir::Input => {
                                let pname = format!("{child_prefix}.{port_name}:bind@{line}");
                                let width = self.vars[port_var].width;
                                self.lower_process(
                                    ProcessKind::Comb,
                                    pname,
                                    *line,
                                    scope,
                                    |el, sc| {
                                        let rhs = el.lower_expr(conn_expr, sc, Some(width))?;
                                        Ok(vec![Stm::Assign {
                                            target: Target::Var(port_var),
                                            rhs,
                                        }])
                                    },
                                )?;
                            }
                            Dir::Output => {
                                // Output port must connect to an lvalue in the parent.
                                let lv = expr_to_lvalue(conn_expr).ok_or_else(|| {
                                    Error::elab(format!(
                                        "output port `{port_name}` of `{name}` must connect to a signal, not an expression"
                                    ))
                                })?;
                                let pname = format!("{child_prefix}.{port_name}:out@{line}");
                                self.lower_process(
                                    ProcessKind::Comb,
                                    pname,
                                    *line,
                                    scope,
                                    |el, sc| {
                                        let target = el.lower_lvalue(&lv, sc)?;
                                        let twidth = el.target_width(&target);
                                        Ok(vec![Stm::Assign {
                                            target,
                                            rhs: EExpr::Resize {
                                                arg: Box::new(EExpr::Var(port_var)),
                                                width: twidth,
                                            },
                                        }])
                                    },
                                )?;
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Lower one process body and compute its read/write sets.
    fn lower_process(
        &mut self,
        kind: ProcessKind,
        name: String,
        line: u32,
        scope: &HashMap<String, Binding>,
        build: impl FnOnce(&mut Self, &HashMap<String, Binding>) -> Result<Vec<Stm>>,
    ) -> Result<()> {
        let body = build(self, scope)?;
        let (reads, writes) = analyze_rw(&body, kind);
        self.processes.push(Process {
            kind,
            name,
            body,
            reads,
            writes,
            line,
        });
        Ok(())
    }

    // ---- expression lowering -------------------------------------------

    /// Self-determined width of an AST expression under `scope`.
    fn sd_width(&self, e: &Expr, scope: &HashMap<String, Binding>) -> Result<u32> {
        Ok(match e {
            Expr::Num(n) => n.width.unwrap_or(32),
            Expr::Ident(name) => match scope.get(name) {
                Some(Binding::Var(v)) => self.vars[*v].width,
                Some(Binding::Param(p)) => p.width(),
                None => return Err(Error::elab(format!("unknown identifier `{name}`"))),
            },
            Expr::Index { base, .. } => match scope.get(base) {
                Some(Binding::Var(v)) if self.vars[*v].is_memory() => self.vars[*v].width,
                Some(Binding::Var(_)) => 1,
                Some(Binding::Param(_)) => 1,
                None => return Err(Error::elab(format!("unknown identifier `{base}`"))),
            },
            Expr::PartSel { msb, lsb, .. } => {
                let m = self.const_eval_u64(msb, scope, "partsel")?;
                let l = self.const_eval_u64(lsb, scope, "partsel")?;
                if m < l {
                    return Err(Error::elab("part select with msb < lsb".to_string()));
                }
                (m - l + 1) as u32
            }
            Expr::Unary { op, arg } => match op {
                UnOp::Not | UnOp::Neg => self.sd_width(arg, scope)?,
                UnOp::LNot | UnOp::RedAnd | UnOp::RedOr | UnOp::RedXor => 1,
            },
            Expr::Binary { op, lhs, rhs } => match op {
                BinOp::Add
                | BinOp::Sub
                | BinOp::Mul
                | BinOp::Div
                | BinOp::Mod
                | BinOp::And
                | BinOp::Or
                | BinOp::Xor
                | BinOp::Xnor => self.sd_width(lhs, scope)?.max(self.sd_width(rhs, scope)?),
                BinOp::Shl | BinOp::Shr | BinOp::Sshr => self.sd_width(lhs, scope)?,
                BinOp::Eq
                | BinOp::Ne
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::LAnd
                | BinOp::LOr => 1,
            },
            Expr::Ternary { then_e, else_e, .. } => self
                .sd_width(then_e, scope)?
                .max(self.sd_width(else_e, scope)?),
            Expr::Concat(parts) => {
                let mut w = 0;
                for p in parts {
                    w += self.sd_width(p, scope)?;
                }
                w
            }
            Expr::Repeat { count, arg } => {
                let c = self.const_eval_u64(count, scope, "replication")? as u32;
                c * self.sd_width(arg, scope)?
            }
        })
    }

    /// Lower an AST expression. `ctx` is the context width (e.g. the
    /// assignment target); width-propagating operators evaluate at
    /// `max(self-determined, ctx)` per simplified Verilog rules.
    fn lower_expr(
        &self,
        e: &Expr,
        scope: &HashMap<String, Binding>,
        ctx: Option<u32>,
    ) -> Result<EExpr> {
        let sd = self.sd_width(e, scope)?;
        let final_w = ctx.map_or(sd, |c| c.max(sd));
        self.build_expr(e, scope, final_w)
    }

    /// Build an elaborated expression at exactly `width` bits.
    fn build_expr(&self, e: &Expr, scope: &HashMap<String, Binding>, width: u32) -> Result<EExpr> {
        let resized = |inner: EExpr, design: &Self| -> EExpr {
            let w = design.eexpr_width(&inner);
            if w == width {
                inner
            } else {
                EExpr::Resize {
                    arg: Box::new(inner),
                    width,
                }
            }
        };
        Ok(match e {
            Expr::Num(n) => {
                let w = n.width.unwrap_or(width.max(1));
                let v = BitVec::from_words(&n.words, w).resize(width);
                EExpr::Const(v)
            }
            Expr::Ident(name) => match scope.get(name) {
                Some(Binding::Var(v)) => resized(EExpr::Var(*v), self),
                Some(Binding::Param(p)) => EExpr::Const(p.resize(width)),
                None => return Err(Error::elab(format!("unknown identifier `{name}`"))),
            },
            Expr::Index { base, idx } => {
                let binding = scope
                    .get(base)
                    .ok_or_else(|| Error::elab(format!("unknown identifier `{base}`")))?;
                match binding {
                    Binding::Var(v) if self.vars[*v].is_memory() => {
                        let iw = self.sd_width(idx, scope)?;
                        let idx = self.build_expr(idx, scope, iw)?;
                        resized(
                            EExpr::ReadMem {
                                var: *v,
                                idx: Box::new(idx),
                            },
                            self,
                        )
                    }
                    Binding::Var(v) => {
                        // Dynamic (or constant) bit select on a vector.
                        if let Ok(c) = self.const_eval(idx, scope, "bitsel") {
                            let lsb = c.to_u64() as u32;
                            resized(
                                EExpr::Slice {
                                    arg: Box::new(EExpr::Var(*v)),
                                    lsb,
                                    width: 1,
                                },
                                self,
                            )
                        } else {
                            let iw = self.sd_width(idx, scope)?;
                            let idx = self.build_expr(idx, scope, iw)?;
                            resized(
                                EExpr::IndexBit {
                                    arg: Box::new(EExpr::Var(*v)),
                                    idx: Box::new(idx),
                                },
                                self,
                            )
                        }
                    }
                    Binding::Param(p) => {
                        let c = self.const_eval(idx, scope, "bitsel")?;
                        let bit = p.bit(c.to_u64() as u32);
                        EExpr::Const(BitVec::from_u64(bit as u64, 1).resize(width))
                    }
                }
            }
            Expr::PartSel { base, msb, lsb } => {
                let m = self.const_eval_u64(msb, scope, "partsel")? as u32;
                let l = self.const_eval_u64(lsb, scope, "partsel")? as u32;
                let binding = scope
                    .get(base)
                    .ok_or_else(|| Error::elab(format!("unknown identifier `{base}`")))?;
                match binding {
                    Binding::Var(v) => resized(
                        EExpr::Slice {
                            arg: Box::new(EExpr::Var(*v)),
                            lsb: l,
                            width: m - l + 1,
                        },
                        self,
                    ),
                    Binding::Param(p) => EExpr::Const(p.part_select(m, l).resize(width)),
                }
            }
            Expr::Unary { op, arg } => match op {
                UnOp::Not | UnOp::Neg => {
                    let a = self.build_expr(arg, scope, width)?;
                    EExpr::Unary {
                        op: *op,
                        arg: Box::new(a),
                        width,
                    }
                }
                UnOp::LNot | UnOp::RedAnd | UnOp::RedOr | UnOp::RedXor => {
                    let sw = self.sd_width(arg, scope)?;
                    let a = self.build_expr(arg, scope, sw)?;
                    resized(
                        EExpr::Unary {
                            op: *op,
                            arg: Box::new(a),
                            width: 1,
                        },
                        self,
                    )
                }
            },
            Expr::Binary { op, lhs, rhs } => match op {
                BinOp::Add
                | BinOp::Sub
                | BinOp::Mul
                | BinOp::Div
                | BinOp::Mod
                | BinOp::And
                | BinOp::Or
                | BinOp::Xor
                | BinOp::Xnor => {
                    let a = self.build_expr(lhs, scope, width)?;
                    let b = self.build_expr(rhs, scope, width)?;
                    EExpr::Binary {
                        op: *op,
                        a: Box::new(a),
                        b: Box::new(b),
                        width,
                    }
                }
                BinOp::Shl | BinOp::Shr | BinOp::Sshr => {
                    let a = self.build_expr(lhs, scope, width)?;
                    let sw = self.sd_width(rhs, scope)?;
                    let b = self.build_expr(rhs, scope, sw)?;
                    EExpr::Binary {
                        op: *op,
                        a: Box::new(a),
                        b: Box::new(b),
                        width,
                    }
                }
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    let w = self.sd_width(lhs, scope)?.max(self.sd_width(rhs, scope)?);
                    let a = self.build_expr(lhs, scope, w)?;
                    let b = self.build_expr(rhs, scope, w)?;
                    resized(
                        EExpr::Binary {
                            op: *op,
                            a: Box::new(a),
                            b: Box::new(b),
                            width: 1,
                        },
                        self,
                    )
                }
                BinOp::LAnd | BinOp::LOr => {
                    let wa = self.sd_width(lhs, scope)?;
                    let wb = self.sd_width(rhs, scope)?;
                    let a = self.build_expr(lhs, scope, wa)?;
                    let b = self.build_expr(rhs, scope, wb)?;
                    resized(
                        EExpr::Binary {
                            op: *op,
                            a: Box::new(a),
                            b: Box::new(b),
                            width: 1,
                        },
                        self,
                    )
                }
            },
            Expr::Ternary {
                cond,
                then_e,
                else_e,
            } => {
                let cw = self.sd_width(cond, scope)?;
                let c = self.build_expr(cond, scope, cw)?;
                let t = self.build_expr(then_e, scope, width)?;
                let f = self.build_expr(else_e, scope, width)?;
                EExpr::Mux {
                    cond: Box::new(c),
                    t: Box::new(t),
                    e: Box::new(f),
                    width,
                }
            }
            Expr::Concat(parts) => {
                let mut lowered = Vec::with_capacity(parts.len());
                let mut total = 0;
                for p in parts {
                    let w = self.sd_width(p, scope)?;
                    total += w;
                    lowered.push(self.build_expr(p, scope, w)?);
                }
                resized(
                    EExpr::Concat {
                        parts: lowered,
                        width: total,
                    },
                    self,
                )
            }
            Expr::Repeat { count, arg } => {
                let c = self.const_eval_u64(count, scope, "replication")? as u32;
                if c == 0 {
                    return Err(Error::elab("zero replication count".to_string()));
                }
                let w = self.sd_width(arg, scope)?;
                let a = self.build_expr(arg, scope, w)?;
                let parts = vec![a; c as usize];
                resized(
                    EExpr::Concat {
                        parts,
                        width: c * w,
                    },
                    self,
                )
            }
        })
    }

    fn eexpr_width(&self, e: &EExpr) -> u32 {
        match e {
            EExpr::Var(v) => self.vars[*v].width,
            EExpr::ReadMem { var, .. } => self.vars[*var].width,
            other => other.width(),
        }
    }

    // ---- statement lowering ----------------------------------------------

    fn lower_stmt(
        &self,
        s: &Stmt,
        scope: &HashMap<String, Binding>,
        blocking_expected: bool,
    ) -> Result<Vec<Stm>> {
        Ok(match s {
            Stmt::Block(stmts) => {
                let mut out = Vec::new();
                for st in stmts {
                    out.extend(self.lower_stmt(st, scope, blocking_expected)?);
                }
                out
            }
            Stmt::Assign {
                lhs,
                rhs,
                blocking,
                line,
            } => {
                if *blocking != blocking_expected {
                    let (found, want) = if *blocking { ("=", "<=") } else { ("<=", "=") };
                    return Err(Error::elab(format!(
                        "line {line}: `{found}` assignment in {} block (use `{want}`)",
                        if blocking_expected {
                            "combinational"
                        } else {
                            "sequential"
                        }
                    )));
                }
                let target = self.lower_lvalue(lhs, scope)?;
                let twidth = self.target_width(&target);
                let rhs = self.lower_expr(rhs, scope, Some(twidth))?;
                vec![Stm::Assign { target, rhs }]
            }
            Stmt::If {
                cond,
                then_s,
                else_s,
                ..
            } => {
                let cw = self.sd_width(cond, scope)?;
                let c = self.build_expr(cond, scope, cw)?;
                let t = self.lower_stmt(then_s, scope, blocking_expected)?;
                let e = match else_s {
                    Some(s) => self.lower_stmt(s, scope, blocking_expected)?,
                    None => Vec::new(),
                };
                vec![Stm::If {
                    cond: c,
                    then_s: t,
                    else_s: e,
                }]
            }
            Stmt::For {
                var,
                init,
                cond,
                step,
                body,
                line,
            } => {
                // Constant-bound loops unroll at elaboration, binding the
                // loop variable as a per-iteration parameter.
                let mut out = Vec::new();
                let mut value = self.const_eval(init, scope, "for-loop init")?;
                let mut iters = 0u32;
                loop {
                    let mut iter_scope = scope.clone();
                    iter_scope.insert(var.clone(), Binding::Param(value.clone()));
                    if !self
                        .const_eval(cond, &iter_scope, "for-loop condition")?
                        .any()
                    {
                        break;
                    }
                    iters += 1;
                    if iters > 65536 {
                        return Err(Error::elab(format!(
                            "for-loop on `{var}` exceeds 65536 iterations (line {line})"
                        )));
                    }
                    out.extend(self.lower_stmt(body, &iter_scope, blocking_expected)?);
                    value = self.const_eval(step, &iter_scope, "for-loop step")?;
                }
                out
            }
            Stmt::Case {
                subject,
                arms,
                default,
                wildcard,
                ..
            } => {
                // Lower to an if/else-if chain on (possibly masked) equality.
                let sw = self.sd_width(subject, scope)?;
                let subj = self.build_expr(subject, scope, sw)?;
                let mut chain: Vec<Stm> = match default {
                    Some(d) => self.lower_stmt(d, scope, blocking_expected)?,
                    None => Vec::new(),
                };
                for arm in arms.iter().rev() {
                    let mut cond: Option<EExpr> = None;
                    for label in &arm.labels {
                        let lw = self.sd_width(label, scope)?.max(sw);
                        let l = self.build_expr(label, scope, lw)?;
                        let s = if lw == sw {
                            subj.clone()
                        } else {
                            EExpr::Resize {
                                arg: Box::new(subj.clone()),
                                width: lw,
                            }
                        };
                        // casez: x/z/? bits in a literal label match anything
                        // — compare only through the care mask.
                        let label_xz = match label {
                            Expr::Num(n) if n.has_wildcards() => Some(n.xz_mask.clone()),
                            _ => None,
                        };
                        let eq = match label_xz {
                            Some(xz) => {
                                if !wildcard {
                                    return Err(Error::elab(
                                        "x/z bits in a case label require `casez`".to_string(),
                                    ));
                                }
                                let care = BitVec::from_words(&xz, lw).not();
                                let masked_subj = EExpr::Binary {
                                    op: BinOp::And,
                                    a: Box::new(s),
                                    b: Box::new(EExpr::Const(care.clone())),
                                    width: lw,
                                };
                                // The label's value bits are already 0 at
                                // wildcard positions, so it needs no mask.
                                EExpr::Binary {
                                    op: BinOp::Eq,
                                    a: Box::new(masked_subj),
                                    b: Box::new(l),
                                    width: 1,
                                }
                            }
                            None => EExpr::Binary {
                                op: BinOp::Eq,
                                a: Box::new(s),
                                b: Box::new(l),
                                width: 1,
                            },
                        };
                        cond = Some(match cond {
                            None => eq,
                            Some(prev) => EExpr::Binary {
                                op: BinOp::LOr,
                                a: Box::new(prev),
                                b: Box::new(eq),
                                width: 1,
                            },
                        });
                    }
                    let body = self.lower_stmt(&arm.body, scope, blocking_expected)?;
                    let cond =
                        cond.ok_or_else(|| Error::elab("case arm with no labels".to_string()))?;
                    chain = vec![Stm::If {
                        cond,
                        then_s: body,
                        else_s: chain,
                    }];
                }
                chain
            }
        })
    }

    fn lower_lvalue(&self, lv: &LValue, scope: &HashMap<String, Binding>) -> Result<Target> {
        match lv {
            LValue::Var(name) => match scope.get(name) {
                Some(Binding::Var(v)) => Ok(Target::Var(*v)),
                Some(Binding::Param(_)) => {
                    Err(Error::elab(format!("cannot assign to parameter `{name}`")))
                }
                None => Err(Error::elab(format!("unknown assignment target `{name}`"))),
            },
            LValue::Index { name, idx } => {
                let Some(Binding::Var(v)) = scope.get(name) else {
                    return Err(Error::elab(format!("unknown assignment target `{name}`")));
                };
                if self.vars[*v].is_memory() {
                    let iw = self.sd_width(idx, scope)?;
                    let idx = self.build_expr(idx, scope, iw)?;
                    Ok(Target::Mem { var: *v, idx })
                } else if let Ok(c) = self.const_eval(idx, scope, "bitsel") {
                    Ok(Target::Slice {
                        var: *v,
                        lsb: c.to_u64() as u32,
                        width: 1,
                    })
                } else {
                    let iw = self.sd_width(idx, scope)?;
                    let idx = self.build_expr(idx, scope, iw)?;
                    Ok(Target::DynBit { var: *v, idx })
                }
            }
            LValue::PartSel { name, msb, lsb } => {
                let Some(Binding::Var(v)) = scope.get(name) else {
                    return Err(Error::elab(format!("unknown assignment target `{name}`")));
                };
                let m = self.const_eval_u64(msb, scope, "partsel")? as u32;
                let l = self.const_eval_u64(lsb, scope, "partsel")? as u32;
                if m < l || m >= self.vars[*v].width {
                    return Err(Error::elab(format!(
                        "bad part select on `{}`",
                        self.vars[*v].name
                    )));
                }
                Ok(Target::Slice {
                    var: *v,
                    lsb: l,
                    width: m - l + 1,
                })
            }
            LValue::BitSel { name, idx } => self.lower_lvalue(
                &LValue::Index {
                    name: name.clone(),
                    idx: idx.clone(),
                },
                scope,
            ),
            LValue::Concat(_) => Err(Error::elab(
                "concatenated assignment targets are not supported; split the assignment"
                    .to_string(),
            )),
        }
    }

    fn target_width(&self, t: &Target) -> u32 {
        match t {
            Target::Var(v) | Target::Mem { var: v, .. } => self.vars[*v].width,
            Target::Slice { width, .. } => *width,
            Target::DynBit { .. } => 1,
        }
    }

    // ---- constant evaluation ---------------------------------------------

    fn const_eval(&self, e: &Expr, scope: &HashMap<String, Binding>, what: &str) -> Result<BitVec> {
        Ok(match e {
            Expr::Num(n) => {
                let w = n.width.unwrap_or(32);
                BitVec::from_words(&n.words, w)
            }
            Expr::Ident(name) => match scope.get(name) {
                Some(Binding::Param(p)) => p.clone(),
                _ => return Err(Error::elab(format!("{what}: `{name}` is not a constant"))),
            },
            Expr::Unary { op, arg } => {
                let a = self.const_eval(arg, scope, what)?;
                match op {
                    UnOp::Not => a.not(),
                    UnOp::Neg => a.neg(),
                    UnOp::LNot => BitVec::from_u64(!a.any() as u64, 1),
                    UnOp::RedAnd => BitVec::from_u64(a.red_and() as u64, 1),
                    UnOp::RedOr => BitVec::from_u64(a.red_or() as u64, 1),
                    UnOp::RedXor => BitVec::from_u64(a.red_xor() as u64, 1),
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let a = self.const_eval(lhs, scope, what)?;
                let b = self.const_eval(rhs, scope, what)?;
                const_binop(*op, &a, &b)
            }
            Expr::Ternary {
                cond,
                then_e,
                else_e,
            } => {
                let c = self.const_eval(cond, scope, what)?;
                if c.any() {
                    self.const_eval(then_e, scope, what)?
                } else {
                    self.const_eval(else_e, scope, what)?
                }
            }
            _ => return Err(Error::elab(format!("{what}: expression is not constant"))),
        })
    }

    fn const_eval_u64(
        &self,
        e: &Expr,
        scope: &HashMap<String, Binding>,
        what: &str,
    ) -> Result<u64> {
        Ok(self.const_eval(e, scope, what)?.to_u64())
    }
}

/// Evaluate a binary operator on constants (used for parameters & folding).
pub fn const_binop(op: BinOp, a: &BitVec, b: &BitVec) -> BitVec {
    use std::cmp::Ordering::*;
    let bit = |x: bool| BitVec::from_u64(x as u64, 1);
    match op {
        BinOp::Add => a.add(b),
        BinOp::Sub => a.sub(b),
        BinOp::Mul => a.mul(b),
        BinOp::Div => a.div(b),
        BinOp::Mod => a.rem(b),
        BinOp::And => a.and(b),
        BinOp::Or => a.or(b),
        BinOp::Xor => a.xor(b),
        BinOp::Xnor => a.xnor(b),
        BinOp::Shl => a.shl(b),
        BinOp::Shr => a.shr(b),
        BinOp::Sshr => a.sshr(b),
        BinOp::Eq => bit(a.eq_val(b)),
        BinOp::Ne => bit(!a.eq_val(b)),
        BinOp::Lt => bit(a.cmp_unsigned(b) == Less),
        BinOp::Le => bit(a.cmp_unsigned(b) != Greater),
        BinOp::Gt => bit(a.cmp_unsigned(b) == Greater),
        BinOp::Ge => bit(a.cmp_unsigned(b) != Less),
        BinOp::LAnd => bit(a.any() && b.any()),
        BinOp::LOr => bit(a.any() || b.any()),
    }
}

/// Convert a connection expression back to an lvalue if it has lvalue shape.
fn expr_to_lvalue(e: &Expr) -> Option<LValue> {
    match e {
        Expr::Ident(name) => Some(LValue::Var(name.clone())),
        Expr::Index { base, idx } => Some(LValue::Index {
            name: base.clone(),
            idx: (**idx).clone(),
        }),
        Expr::PartSel { base, msb, lsb } => Some(LValue::PartSel {
            name: base.clone(),
            msb: (**msb).clone(),
            lsb: (**lsb).clone(),
        }),
        _ => None,
    }
}

/// How a process writes one variable over an evaluation: the whole value
/// (or a dynamic bit, which zero-bases the whole value) vs. a set of
/// constant slices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteShape {
    Whole,
    /// `(lsb, width)` pairs, in encounter order (possibly overlapping
    /// within one process — later writes win).
    Slices(Vec<(u32, u32)>),
}

/// Collect each written variable's [`WriteShape`] for a process body.
pub fn write_shapes(body: &[Stm]) -> HashMap<VarId, WriteShape> {
    fn walk(stms: &[Stm], out: &mut HashMap<VarId, WriteShape>) {
        for s in stms {
            match s {
                Stm::Assign { target, .. } => match target {
                    Target::Var(v) | Target::DynBit { var: v, .. } => {
                        out.insert(*v, WriteShape::Whole);
                    }
                    Target::Slice { var, lsb, width } => match out
                        .entry(*var)
                        .or_insert_with(|| WriteShape::Slices(Vec::new()))
                    {
                        WriteShape::Whole => {}
                        WriteShape::Slices(list) => list.push((*lsb, *width)),
                    },
                    Target::Mem { .. } => {}
                },
                Stm::If { then_s, else_s, .. } => {
                    walk(then_s, out);
                    walk(else_s, out);
                }
            }
        }
    }
    let mut out = HashMap::new();
    walk(body, &mut out);
    out
}

/// A bit range of a variable: `(var, lsb, width)`; `width == u32::MAX`
/// means the whole variable.
pub type BitRange = (VarId, u32, u32);

/// Whole-variable marker width.
pub const WHOLE: u32 = u32::MAX;

fn expr_read_ranges(e: &EExpr, out: &mut Vec<BitRange>) {
    match e {
        // A constant slice directly on a variable reads only those bits.
        EExpr::Slice { arg, lsb, width } => {
            if let EExpr::Var(v) = &**arg {
                out.push((*v, *lsb, *width));
            } else {
                expr_read_ranges(arg, out);
            }
        }
        EExpr::Const(_) => {}
        EExpr::Var(v) => out.push((*v, 0, WHOLE)),
        EExpr::ReadMem { var, idx } => {
            out.push((*var, 0, WHOLE));
            expr_read_ranges(idx, out);
        }
        EExpr::Unary { arg, .. } | EExpr::Resize { arg, .. } => expr_read_ranges(arg, out),
        EExpr::Binary { a, b, .. } => {
            expr_read_ranges(a, out);
            expr_read_ranges(b, out);
        }
        EExpr::Mux { cond, t, e, .. } => {
            expr_read_ranges(cond, out);
            expr_read_ranges(t, out);
            expr_read_ranges(e, out);
        }
        EExpr::Concat { parts, .. } => parts.iter().for_each(|p| expr_read_ranges(p, out)),
        EExpr::IndexBit { arg, idx } => {
            expr_read_ranges(arg, out);
            expr_read_ranges(idx, out);
        }
    }
}

/// Bit ranges a process body reads (conservative: whole-variable unless a
/// constant slice is syntactically direct).
pub fn read_ranges(body: &[Stm]) -> Vec<BitRange> {
    fn walk(stms: &[Stm], out: &mut Vec<BitRange>) {
        for s in stms {
            match s {
                Stm::Assign { target, rhs } => {
                    expr_read_ranges(rhs, out);
                    match target {
                        Target::DynBit { idx, .. } | Target::Mem { idx, .. } => {
                            expr_read_ranges(idx, out)
                        }
                        _ => {}
                    }
                }
                Stm::If {
                    cond,
                    then_s,
                    else_s,
                } => {
                    expr_read_ranges(cond, out);
                    walk(then_s, out);
                    walk(else_s, out);
                }
            }
        }
    }
    let mut out = Vec::new();
    walk(body, &mut out);
    out
}

/// Bit ranges a process body writes.
pub fn write_ranges(body: &[Stm]) -> Vec<BitRange> {
    write_shapes(body)
        .into_iter()
        .flat_map(|(v, shape)| match shape {
            WriteShape::Whole => vec![(v, 0, WHOLE)],
            WriteShape::Slices(list) => list.into_iter().map(|(lsb, w)| (v, lsb, w)).collect(),
        })
        .collect()
}

/// Do two bit ranges of the same variable overlap?
pub fn ranges_overlap(a: (u32, u32), b: (u32, u32)) -> bool {
    if a.1 == WHOLE || b.1 == WHOLE {
        return true;
    }
    a.0 < b.0.saturating_add(b.1) && b.0 < a.0.saturating_add(a.1)
}

/// Compute (reads-before-write, writes) for a process body.
///
/// Public entry point for frontends that construct [`Design`]s directly
/// (e.g. the `netlist` importer) and for rewrite passes that edit process
/// bodies and must refresh the cached `reads`/`writes` lists.
pub fn process_rw(body: &[Stm], kind: ProcessKind) -> (Vec<VarId>, Vec<VarId>) {
    analyze_rw(body, kind)
}

/// Compute (reads-before-write, writes) for a statement list.
///
/// For sequential processes every read is external (non-blocking semantics
/// read pre-edge state), so writes never shadow reads.
fn analyze_rw(body: &[Stm], kind: ProcessKind) -> (Vec<VarId>, Vec<VarId>) {
    let mut reads: Vec<VarId> = Vec::new();
    let mut writes: Vec<VarId> = Vec::new();
    let mut written: std::collections::HashSet<VarId> = std::collections::HashSet::new();

    fn walk(
        stms: &[Stm],
        kind: ProcessKind,
        reads: &mut Vec<VarId>,
        writes: &mut Vec<VarId>,
        written: &mut std::collections::HashSet<VarId>,
    ) {
        for s in stms {
            match s {
                Stm::Assign { target, rhs } => {
                    let mut note_read = |v: VarId| {
                        if kind == ProcessKind::Seq || !written.contains(&v) {
                            reads.push(v);
                        }
                    };
                    rhs.visit_reads(&mut note_read);
                    match target {
                        Target::DynBit { idx, .. } | Target::Mem { idx, .. } => {
                            idx.visit_reads(&mut note_read)
                        }
                        _ => {}
                    }
                    // Partial writes are read-modify-write, but the base
                    // value is never an *external* combinational input:
                    // sequential RMW reads committed pre-edge state, and
                    // combinational processes clear the bits they own at
                    // process entry (zero-based, no latch), so the splice
                    // base is process-internal. Hence no read is recorded.
                    let v = target.var();
                    written.insert(v);
                    writes.push(v);
                }
                Stm::If {
                    cond,
                    then_s,
                    else_s,
                } => {
                    let mut note_read = |v: VarId| {
                        if kind == ProcessKind::Seq || !written.contains(&v) {
                            reads.push(v);
                        }
                    };
                    cond.visit_reads(&mut note_read);
                    // Branches: conservative — union of both, with the
                    // pre-branch written set (a var written in only one
                    // branch is still "maybe unwritten" afterwards; we keep
                    // it in `written` only if written in both).
                    let mut w_then = written.clone();
                    walk(then_s, kind, reads, writes, &mut w_then);
                    let mut w_else = written.clone();
                    walk(else_s, kind, reads, writes, &mut w_else);
                    for v in w_then.intersection(&w_else) {
                        written.insert(*v);
                    }
                }
            }
        }
    }

    walk(body, kind, &mut reads, &mut writes, &mut written);
    reads.sort_unstable();
    reads.dedup();
    writes.sort_unstable();
    writes.dedup();
    (reads, writes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate;

    #[test]
    fn flatten_hierarchy_names() {
        let src = "
            module leaf(input [3:0] a, output [3:0] y);
              wire [3:0] t;
              assign t = a + 4'd1;
              assign y = t;
            endmodule
            module top(input [3:0] x, output [3:0] y);
              wire [3:0] mid;
              leaf u0 (.a(x), .y(mid));
              leaf u1 (.a(mid), .y(y));
            endmodule";
        let d = elaborate(src, "top").unwrap();
        assert!(d.find_var("u0.t").is_some());
        assert!(d.find_var("u1.t").is_some());
        assert!(d.find_var("mid").is_some());
        assert_eq!(d.inputs.len(), 1);
        assert_eq!(d.outputs.len(), 1);
    }

    #[test]
    fn parameter_override_changes_width() {
        let src = "
            module w #(parameter W = 4)(input [W-1:0] a, output [W-1:0] y);
              assign y = a;
            endmodule
            module top(input [7:0] x, output [7:0] y);
              w #(.W(8)) u (.a(x), .y(y));
            endmodule";
        let d = elaborate(src, "top").unwrap();
        let v = d.find_var("u.a").unwrap();
        assert_eq!(d.vars[v].width, 8);
    }

    #[test]
    fn localparam_cannot_be_overridden() {
        let src = "
            module w(input a, output y);
              localparam L = 1;
              assign y = a;
            endmodule
            module top(input x, output y);
              w #(.L(2)) u (.a(x), .y(y));
            endmodule";
        assert!(elaborate(src, "top").is_err());
    }

    #[test]
    fn seq_process_marks_state() {
        let src = "
            module top(input clk, input [3:0] d, output [3:0] q);
              reg [3:0] r;
              always @(posedge clk) r <= d;
              assign q = r;
            endmodule";
        let d = elaborate(src, "top").unwrap();
        let r = d.find_var("r").unwrap();
        assert!(d.vars[r].is_state);
        assert!(d.clock.is_some());
        // clk is the clock, not a data input.
        assert_eq!(d.inputs.len(), 1);
    }

    #[test]
    fn multi_driver_is_rejected() {
        let src = "
            module top(input a, output y);
              wire w;
              assign w = a;
              assign w = ~a;
              assign y = w;
            endmodule";
        let err = elaborate(src, "top").unwrap_err();
        assert!(err.to_string().contains("multiple processes"), "{err}");
    }

    #[test]
    fn seq_without_clock_input_errors() {
        let src = "
            module top(input tick, output reg q);
              always @(posedge tick) q <= ~q;
            endmodule";
        assert!(elaborate(src, "top").is_err());
    }

    #[test]
    fn case_lowers_to_if_chain() {
        let src = "
            module top(input [1:0] s, output reg [3:0] y);
              always @(*) begin
                y = 4'd0;
                case (s)
                  2'd0: y = 4'd1;
                  2'd1, 2'd2: y = 4'd2;
                  default: y = 4'd7;
                endcase
              end
            endmodule";
        let d = elaborate(src, "top").unwrap();
        let p = &d.processes[0];
        assert_eq!(p.kind, ProcessKind::Comb);
        // default assign + 1 top-level if
        assert_eq!(p.body.len(), 2);
        assert!(matches!(p.body[1], Stm::If { .. }));
    }

    #[test]
    fn procedural_for_unrolls() {
        // Popcount via a for loop over the bits.
        let src = "
            module top(input [7:0] a, output reg [3:0] ones);
              integer i;
              always @(*) begin
                ones = 4'd0;
                for (i = 0; i < 8; i = i + 1) begin
                  ones = ones + {3'd0, a[i]};
                end
              end
            endmodule";
        let d = elaborate(src, "top").unwrap();
        let mut sim = crate::Interp::new(&d).unwrap();
        let a = d.find_var("a").unwrap();
        let ones = d.find_var("ones").unwrap();
        for v in [0u64, 0xff, 0b1010_0110, 0b1000_0000] {
            sim.step_cycle(&[(a, BitVec::from_u64(v, 8))]);
            assert_eq!(
                sim.peek(ones).unwrap().to_u64(),
                v.count_ones() as u64,
                "a={v:#010b}"
            );
        }
    }

    #[test]
    fn generate_for_instantiates_chain() {
        // A ripple chain of adders built with generate-for.
        let src = "
            module stage(input [7:0] x, output [7:0] y);
              assign y = x + 8'd1;
            endmodule
            module top(input [7:0] a, output [7:0] y);
              wire [7:0] link0;
              wire [7:0] link1;
              wire [7:0] link2;
              wire [7:0] link3;
              assign link0 = a;
              genvar i;
              generate
                for (i = 0; i < 3; i = i + 1) begin : chain
                  stage s (.x(link0), .y(link1));
                end
              endgenerate
              assign y = link1;
            endmodule";
        // NOTE: without genvar-indexed wire arrays, every iteration drives
        // the whole of link1 — a multi-driver error the elaborator catches.
        let err = elaborate(src, "top").unwrap_err();
        assert!(err.to_string().contains("whole"), "{err}");

        // The working idiom: index wires by the genvar through part selects.
        let src2 = "
            module stage(input [7:0] x, output [7:0] y);
              assign y = x + 8'd1;
            endmodule
            module top(input [7:0] a, output [7:0] y);
              wire [31:0] links;
              assign links[7:0] = a;
              genvar i;
              generate
                for (i = 0; i < 3; i = i + 1) begin : chain
                  stage s (.x(links[i*8+7:i*8]), .y(links[i*8+15:i*8+8]));
                end
              endgenerate
              assign y = links[31:24];
            endmodule";
        let d = elaborate(src2, "top").unwrap();
        // Three distinct instances with generate-block names.
        assert!(
            d.find_var("chain_0_s.x").is_some(),
            "{:?}",
            d.vars.iter().map(|v| &v.name).collect::<Vec<_>>()
        );
        assert!(d.find_var("chain_2_s.y").is_some());
        let mut sim = crate::Interp::new(&d).unwrap();
        let a = d.find_var("a").unwrap();
        let y = d.find_var("y").unwrap();
        sim.step_cycle(&[(a, BitVec::from_u64(10, 8))]);
        assert_eq!(sim.peek(y).unwrap().to_u64(), 13, "three +1 stages");
    }

    #[test]
    fn for_loop_iteration_cap() {
        let src = "
            module top(input a, output reg y);
              integer i;
              always @(*) begin
                y = a;
                for (i = 0; i < 100000; i = i + 1) y = ~y;
              end
            endmodule";
        let err = elaborate(src, "top").unwrap_err();
        assert!(err.to_string().contains("65536"), "{err}");
    }

    #[test]
    fn casez_wildcards_match_through_mask() {
        // Priority encoder written with casez, the idiomatic use.
        let src = "
            module top(input [3:0] req, output reg [2:0] grant);
              always @(*) begin
                casez (req)
                  4'b???1: grant = 3'd0;
                  4'b??10: grant = 3'd1;
                  4'b?100: grant = 3'd2;
                  4'b1000: grant = 3'd3;
                  default: grant = 3'd7;
                endcase
              end
            endmodule";
        let d = elaborate(src, "top").unwrap();
        let mut i = crate::Interp::new(&d).unwrap();
        let req = d.find_var("req").unwrap();
        let grant = d.find_var("grant").unwrap();
        for (input, expect) in [
            (0b0001u64, 0u64),
            (0b1011, 0),
            (0b0110, 1),
            (0b0100, 2),
            (0b1000, 3),
            (0b0000, 7),
        ] {
            i.step_cycle(&[(req, BitVec::from_u64(input, 4))]);
            assert_eq!(i.peek(grant).unwrap().to_u64(), expect, "req={input:#06b}");
        }
    }

    #[test]
    fn wildcards_in_plain_case_rejected() {
        let src = "
            module top(input [3:0] a, output reg y);
              always @(*) begin
                case (a)
                  4'b1???: y = 1'b1;
                  default: y = 1'b0;
                endcase
              end
            endmodule";
        let err = elaborate(src, "top").unwrap_err();
        assert!(err.to_string().contains("casez"), "{err}");
    }

    #[test]
    fn blocking_in_seq_block_rejected() {
        let src = "
            module top(input clk, output reg q);
              always @(posedge clk) q = 1'b1;
            endmodule";
        assert!(elaborate(src, "top").is_err());
    }

    #[test]
    fn memory_read_write() {
        let src = "
            module top(input clk, input [3:0] addr, input [7:0] d, input we, output [7:0] q);
              reg [7:0] mem [0:15];
              assign q = mem[addr];
              always @(posedge clk) if (we) mem[addr] <= d;
            endmodule";
        let d = elaborate(src, "top").unwrap();
        let m = d.find_var("mem").unwrap();
        assert_eq!(d.vars[m].depth, 16);
        assert!(d.vars[m].is_state);
    }

    #[test]
    fn use_before_def_counts_as_read() {
        let src = "
            module top(input [3:0] a, output reg [3:0] y);
              reg [3:0] t;
              always @(*) begin
                t = a + 4'd1;
                y = t + 4'd1; // t read after write: not an external read
              end
            endmodule";
        let d = elaborate(src, "top").unwrap();
        let p = &d.processes[0];
        let a = d.find_var("a").unwrap();
        let t = d.find_var("t").unwrap();
        assert!(p.reads.contains(&a));
        assert!(
            !p.reads.contains(&t),
            "t is defined before use, not an input"
        );
    }

    #[test]
    fn partial_write_in_comb_is_zero_based_not_a_read() {
        // The splice base of a comb partial write is the process's own
        // zeroed bits, not an external input — so no read is recorded
        // (this is what makes disjoint-slice bus drivers acyclic).
        let src = "
            module top(input a, output reg [3:0] y);
              always @(*) y[0] = a;
            endmodule";
        let d = elaborate(src, "top").unwrap();
        let p = &d.processes[0];
        let y = d.find_var("y").unwrap();
        assert!(
            !p.reads.contains(&y),
            "zero-based splice must not read the var"
        );
        // Functionally: unwritten bits read as zero.
        let mut i = crate::Interp::new(&d).unwrap();
        let a = d.find_var("a").unwrap();
        i.step_cycle(&[(a, BitVec::from_u64(1, 1))]);
        assert_eq!(i.peek(y).unwrap().to_u64(), 1);
    }

    #[test]
    fn disjoint_slice_drivers_are_allowed() {
        let src = "
            module top(input [3:0] a, input [3:0] b, output [7:0] y);
              assign y[3:0] = a + 4'd1;
              assign y[7:4] = b ^ 4'h5;
            endmodule";
        let d = elaborate(src, "top").unwrap();
        let mut i = crate::Interp::new(&d).unwrap();
        let a = d.find_var("a").unwrap();
        let b = d.find_var("b").unwrap();
        let y = d.find_var("y").unwrap();
        i.step_cycle(&[(a, BitVec::from_u64(3, 4)), (b, BitVec::from_u64(0xf, 4))]);
        assert_eq!(i.peek(y).unwrap().to_u64(), ((0xf ^ 0x5) << 4) | 4);
    }

    #[test]
    fn overlapping_slice_drivers_rejected() {
        let src = "
            module top(input [3:0] a, output [7:0] y);
              assign y[4:0] = {1'b0, a};
              assign y[7:4] = a;
            endmodule";
        let err = elaborate(src, "top").unwrap_err();
        assert!(err.to_string().contains("overlapping"), "{err}");
    }

    #[test]
    fn width_context_prevents_carry_loss() {
        // y (9 bits) = a + b where a,b are 8 bits: addition must happen at 9 bits.
        let src = "
            module top(input [7:0] a, input [7:0] b, output [8:0] y);
              assign y = a + b;
            endmodule";
        let d = elaborate(src, "top").unwrap();
        match &d.processes[0].body[0] {
            Stm::Assign {
                rhs: EExpr::Binary { width, .. },
                ..
            } => assert_eq!(*width, 9),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_module_errors() {
        let src = "module top(input a, output y); nosuch u (.p(a)); endmodule";
        assert!(elaborate(src, "top").is_err());
    }
}
