//! `repro` — regenerate the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p bench --bin repro -- all          # everything
//! cargo run --release -p bench --bin repro -- table2       # one experiment
//! cargo run --release -p bench --bin repro -- all --fast   # quick smoke pass
//! ```

use bench::Scale;

const USAGE: &str = "usage: repro [EXPERIMENT] [--fast]
  EXPERIMENT  table1..table5, fig2, fig12..fig16, ablations or all (default)
  --fast      quick smoke pass at reduced scale
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for a in args.iter().filter(|a| a.starts_with('-')) {
        match a.as_str() {
            "--fast" => {}
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            _ => {
                eprint!("repro: unknown flag `{a}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let fast = args.iter().any(|a| a == "--fast");
    let scale = if fast { Scale::fast() } else { Scale::full() };
    let what = args
        .iter()
        .find(|a| !a.starts_with('-'))
        .map(String::as_str)
        .unwrap_or("all");

    let report = match what {
        "table1" => bench::table1(),
        "table2" => bench::table2(scale),
        "table3" => bench::table3(scale),
        "table4" => bench::table4(),
        "table5" => bench::table5(),
        "fig2" => bench::fig2(),
        "fig12" => bench::fig12(),
        "fig13" => bench::fig13(scale),
        "fig14" => bench::fig14(scale),
        "fig15" => bench::fig15(),
        "fig16" => bench::fig16(),
        "ablations" => bench::ablations(),
        "all" => {
            let mut r = bench::all(scale);
            r.push_str("==================== ablations ====================\n");
            r.push_str(&bench::ablations());
            r
        }
        other => {
            eprintln!(
                "unknown experiment `{other}`; expected one of: table1..table5, fig2, fig12..fig16, all"
            );
            std::process::exit(2);
        }
    };
    println!("{report}");

    // Persist alongside the DOT exports.
    let dir = std::path::Path::new("target/repro");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("{what}.txt"));
    if std::fs::write(&path, &report).is_ok() {
        eprintln!("(report written to {})", path.display());
    }
}
