use longtail_perfbench::{report, run, Args};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>: {e}");
            std::process::exit(2);
        }
    };
    println!("run: {args:?}");
    match run(&args) {
        Ok(out) => {
            let catalog = if args.trace {
                report::PER_LAYER
            } else {
                report::END_TO_END
            };
            println!(
                "{}",
                out.metrics
                    .line(catalog, out.correct, out.attempted, out.failed)
            );
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}
