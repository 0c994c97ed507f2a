//! Determinism guarantees: identical seeds replay identical results across
//! every stack and scenario family; different seeds genuinely differ.

use daredevil_repro::prelude::*;

fn fingerprint(out: &RunOutput) -> (u64, u64, u64, u64) {
    let l = out.summary.class("L");
    let t = out.summary.class("T");
    (
        l.ios_completed,
        l.latency.p999().as_nanos(),
        t.bytes_completed,
        out.events_processed,
    )
}

fn run_once(stack: StackSpec, seed: u64) -> RunOutput {
    let mut s = Scenario::multi_tenant_fio(stack, 2, 6, 2, MachinePreset::Small);
    s.knobs.warmup = SimDuration::from_millis(5);
    s.knobs.measure = SimDuration::from_millis(60);
    s.knobs.seed = seed;
    daredevil_repro::testbed::run(s)
}

#[test]
fn same_seed_same_result_all_stacks() {
    for stack in [
        StackSpec::vanilla(),
        StackSpec::vanilla_partitioned(4),
        StackSpec::blk_switch(),
        StackSpec::dare_base(),
        StackSpec::dare_sched(),
        StackSpec::daredevil(),
    ] {
        let a = run_once(stack.clone(), 1234);
        let b = run_once(stack.clone(), 1234);
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "{} is not deterministic",
            a.summary.stack
        );
    }
}

#[test]
fn different_seeds_differ() {
    let a = run_once(StackSpec::daredevil(), 1);
    let b = run_once(StackSpec::daredevil(), 2);
    assert_ne!(
        fingerprint(&a),
        fingerprint(&b),
        "different seeds should explore different schedules"
    );
}

#[test]
fn storms_are_deterministic_too() {
    let mk = |seed| {
        let mut s =
            Scenario::multi_tenant_fio(StackSpec::daredevil(), 2, 4, 2, MachinePreset::Small);
            s.knobs.warmup = SimDuration::from_millis(5);
            s.knobs.measure = SimDuration::from_millis(60);
            s.knobs.seed = seed;
        s.ionice_storm = Some(SimDuration::from_millis(1));
        s.migrate_storm = Some(SimDuration::from_millis(3));
        daredevil_repro::testbed::run(s)
    };
    let a = mk(7);
    let b = mk(7);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(a.route_stats.reassignments, b.route_stats.reassignments);
}

#[test]
fn app_workloads_are_deterministic() {
    use daredevil_repro::workload::kvsim::KvConfig;
    let mk = || {
        let mut s = Scenario::new("det-app", MachinePreset::Small, StackSpec::daredevil());
        s.tenants.push(TenantSpec {
            class_label: "app",
            ionice: IoPriorityClass::RealTime,
            core: 0,
            nsid: NamespaceId(1),
            slo: None,
            kind: TenantKind::App(AppKind::Ycsb {
                mix: YcsbMix::F,
                config: KvConfig {
                    keys: 5_000,
                    cache_blocks: 500,
                    memtable_entries: 64,
                    ..KvConfig::default()
                },
                ops: 400,
            }),
        });
        s.stop_when_apps_done = true;
        s.knobs.measure = SimDuration::from_secs(10);
        daredevil_repro::testbed::run(s)
    };
    let a = mk();
    let b = mk();
    let count = |o: &RunOutput| -> u64 { o.op_latencies.values().map(|h| h.count()).sum() };
    assert_eq!(count(&a), count(&b));
    assert_eq!(a.events_processed, b.events_processed);
}
