//! The figure registry (`bench::figures::ALL`) is the only list of
//! figures, so it must name every figure module exactly once, and `fig`
//! must refuse a name it does not know.

use std::collections::BTreeSet;

fn registry_names() -> Vec<&'static str> {
    bench::figures::ALL.iter().map(|&(n, _)| n).collect()
}

#[test]
fn registry_names_are_unique() {
    let names = registry_names();
    let unique: BTreeSet<_> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "duplicate name in {names:?}");
}

#[test]
fn registry_matches_figure_modules() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/figures");
    let modules: BTreeSet<String> = std::fs::read_dir(&dir)
        .expect("src/figures is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .filter_map(|p| Some(p.file_stem()?.to_str()?.to_string()))
        .filter(|stem| stem != "mod")
        .collect();
    let registered: BTreeSet<String> = registry_names().iter().map(|n| n.to_string()).collect();
    assert_eq!(registered, modules, "figures::ALL vs src/figures/*.rs");
}

#[test]
fn fig_rejects_unknown_name() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fig"))
        .args(["no_such_figure", "--quick"])
        .output()
        .expect("fig runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fig6_gc"), "names not listed: {stderr}");
}
