//! Regenerates one figure by name: `fig NAME [flags]`, where NAME is an
//! entry of `bench::figures::ALL` and the flags are the shared
//! `bench::Opts` command line. A missing or unknown name exits 2 and lists
//! the registered names.

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    let Some(&(_, run_figure)) = bench::figures::ALL.iter().find(|&&(n, _)| n == name) else {
        let names: Vec<&str> = bench::figures::ALL.iter().map(|&(n, _)| n).collect();
        eprintln!(
            "usage: fig NAME [flags]\nunknown figure {name:?}; known: {}",
            names.join(", ")
        );
        std::process::exit(2);
    };
    run_figure(&bench::Opts::parse(&args.collect::<Vec<_>>()));
}
