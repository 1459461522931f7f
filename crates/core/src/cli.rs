//! Shared command-line plumbing for the `rtlflow` binary.
//!
//! Every subcommand (`simulate`, `bench-exec`, `shard-sim`, `serve-sim`,
//! `cluster-sim`, ...) cracks the same `--flag value` grammar; this
//! module holds the one parser they all use so a new subcommand never
//! re-implements flag handling. The parser also remembers which flag
//! names a subcommand asked about, so [`Args::finish`] can refuse a flag
//! nobody reads instead of letting a typo run the defaults.

use std::cell::RefCell;
use std::process::exit;

use designs::{Benchmark, NvdlaScale};

/// Minimal argument cracker: positionals + `--flag [value]` pairs.
pub struct Args {
    pub positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
    /// Every name `get`/`has`/`num` was asked about so far.
    queried: RefCell<Vec<String>>,
}

impl Args {
    pub fn parse(raw: &[String]) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let a = &raw[i];
            if let Some(name) = a
                .strip_prefix("--")
                .or_else(|| a.strip_prefix('-').filter(|s| s.len() == 1))
            {
                let value = raw.get(i + 1).filter(|v| !v.starts_with('-')).cloned();
                if value.is_some() {
                    i += 1;
                }
                flags.push((name.to_string(), value));
            } else {
                positional.push(a.clone());
            }
            i += 1;
        }
        Args {
            positional,
            flags,
            queried: RefCell::new(Vec::new()),
        }
    }

    fn note(&self, name: &str) {
        self.queried.borrow_mut().push(name.to_string());
    }

    /// Last value given for `--name` (last wins, like most CLIs).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.note(name);
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    pub fn has(&self, name: &str) -> bool {
        self.note(name);
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// The first flag on the command line that no `get`/`has`/`num` call
    /// has asked about.
    pub fn unknown_flag(&self) -> Option<&str> {
        let q = self.queried.borrow();
        self.flags
            .iter()
            .map(|(n, _)| n.as_str())
            .find(|n| !q.iter().any(|k| k == n))
    }

    /// End of a subcommand's flag reading: exit 2 naming the first flag
    /// it never asked about. Call it after the last `get`/`has`/`num` and
    /// before the work starts.
    pub fn finish(&self) {
        if let Some(name) = self.unknown_flag() {
            let dashes = if name.len() == 1 { "-" } else { "--" };
            eprintln!("unknown flag `{dashes}{name}` for this command (see `rtlflow help`)");
            exit(2)
        }
    }

    /// Parse `--name` as a number, exiting with a usage error on junk.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("bad value for --{name}: `{v}`");
                exit(2)
            }),
        }
    }
}

/// Parse a comma-separated list flag value (`--gpus 1,2,4`).
pub fn csv_list<T: std::str::FromStr>(s: &str, flag: &str) -> Vec<T> {
    let list: Vec<T> = s
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(|p| {
            p.parse().unwrap_or_else(|_| {
                eprintln!("bad value in --{flag}: `{p}`");
                exit(2)
            })
        })
        .collect();
    if list.is_empty() {
        eprintln!("--{flag} needs at least one value");
        exit(2)
    }
    list
}

/// Resolve a benchmark name as accepted by `--benchmark`.
pub fn benchmark_by_name(name: &str) -> Benchmark {
    match name {
        "riscv-mini" | "riscv_mini" => Benchmark::RiscvMini,
        "spinal" | "Spinal" => Benchmark::Spinal,
        "nvdla" | "NVDLA" => Benchmark::Nvdla(NvdlaScale::HwSmall),
        "nvdla-small" => Benchmark::Nvdla(NvdlaScale::Small),
        "nvdla-tiny" => Benchmark::Nvdla(NvdlaScale::Tiny),
        "picorv32" => Benchmark::Picorv32,
        "handshake" => Benchmark::Handshake,
        other => {
            eprintln!("unknown benchmark `{other}` (see `rtlflow benchmarks`)");
            exit(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::parse(&s.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_positionals_flags_and_values() {
        let a = args(&["simulate", "design.v", "--top", "cpu", "-n", "64", "--json"]);
        assert_eq!(a.positional, ["simulate", "design.v"]);
        assert_eq!(a.get("top"), Some("cpu"));
        assert_eq!(a.num("n", 0usize), 64);
        assert!(a.has("json"));
        assert!(!a.has("verify"));
        assert_eq!(a.num("c", 1000u64), 1000);
    }

    #[test]
    fn flags_nobody_asked_about_are_reported_in_command_line_order() {
        let a = args(&[
            "simulate", "--exce", "fused", "-n", "64", "--verfy", "-c", "3",
        ]);
        assert_eq!(a.unknown_flag(), Some("exce"), "nothing queried yet");
        assert_eq!(a.get("exec"), None);
        assert_eq!(a.num("n", 0usize), 64);
        assert_eq!(a.unknown_flag(), Some("exce"));
        // Asking about a flag, by any accessor, is what makes it known;
        // whether it was given or had a value does not matter.
        a.get("exce");
        assert_eq!(a.unknown_flag(), Some("verfy"));
        assert!(a.has("verfy"));
        assert_eq!(a.unknown_flag(), Some("c"));
        assert!(!a.has("json"));
        assert_eq!(a.num("c", 0u64), 3);
        assert_eq!(a.unknown_flag(), None);
    }

    #[test]
    fn last_flag_wins() {
        let a = args(&["x", "--seed", "1", "--seed", "9"]);
        assert_eq!(a.num("seed", 0u64), 9);
    }

    #[test]
    fn csv_list_trims_and_skips_empties() {
        assert_eq!(csv_list::<usize>("1, 2,,4", "gpus"), vec![1, 2, 4]);
        assert_eq!(csv_list::<f64>("1.5,0.5", "speeds"), vec![1.5, 0.5]);
    }

    #[test]
    fn benchmark_names_resolve() {
        assert!(matches!(
            benchmark_by_name("riscv-mini"),
            Benchmark::RiscvMini
        ));
        assert!(matches!(benchmark_by_name("spinal"), Benchmark::Spinal));
        assert!(matches!(
            benchmark_by_name("nvdla-tiny"),
            Benchmark::Nvdla(NvdlaScale::Tiny)
        ));
        assert!(matches!(benchmark_by_name("picorv32"), Benchmark::Picorv32));
        assert!(matches!(
            benchmark_by_name("handshake"),
            Benchmark::Handshake
        ));
    }
}
