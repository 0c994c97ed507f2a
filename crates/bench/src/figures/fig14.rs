//! Fig. 14 — overhead of base-priority (ionice) update storms (§7.5).
//!
//! Every tenant's ionice class flips at a fixed interval, from 1 s down to
//! 10 µs. Each flip forces troute to re-schedule the tenant's default NSQ.
//! Reported: L-tenant IOPS, T-tenant throughput, and CPU utilisation,
//! normalized to the storm-free baseline, plus the reassignment count.

use dd_metrics::table::fmt_f;
use dd_metrics::Table;
use simkit::SimDuration;
use testbed::scenario::{MachinePreset, Scenario, StackSpec};

use crate::{Opts, Sweep};

/// Regenerates Fig. 14.
pub fn run_figure(opts: &Opts) {
    let intervals: Vec<(&str, Option<SimDuration>)> = if opts.quick {
        vec![
            ("none", None),
            ("1ms", Some(SimDuration::from_millis(1))),
            ("10us", Some(SimDuration::from_micros(10))),
        ]
    } else {
        vec![
            ("none", None),
            ("1s", Some(SimDuration::from_secs(1))),
            ("100ms", Some(SimDuration::from_millis(100))),
            ("10ms", Some(SimDuration::from_millis(10))),
            ("1ms", Some(SimDuration::from_millis(1))),
            ("100us", Some(SimDuration::from_micros(100))),
            ("10us", Some(SimDuration::from_micros(10))),
        ]
    };
    let mut table = Table::new(
        "Fig 14: normalized performance under ionice update storms (daredevil, 4 L + 8 T, 4 cores)",
        &[
            "interval",
            "L IOPS (norm)",
            "T tput (norm)",
            "CPU util (norm)",
            "reassignments",
        ],
    );
    let mut sweep = Sweep::new();
    for (label, interval) in &intervals {
        let mut s = Scenario::multi_tenant_fio(StackSpec::daredevil(), 4, 8, 4, MachinePreset::SvM);
        s.ionice_storm = *interval;
        sweep.add(*label, s);
    }
    let mut results = sweep.run(opts);

    let mut baseline: Option<(f64, f64, f64)> = None;
    for (label, _interval) in intervals {
        let out = results.next_output();
        let l_iops = out.l_kiops();
        let t_tput = out.t_mbps();
        let cpu = out.summary.avg_cpu_util();
        let (bl_iops, bl_tput, bl_cpu) = *baseline.get_or_insert((l_iops, t_tput, cpu));
        table.row(&[
            label.to_string(),
            fmt_f(l_iops / bl_iops.max(1e-9)),
            fmt_f(t_tput / bl_tput.max(1e-9)),
            fmt_f(cpu / bl_cpu.max(1e-9)),
            format!("{}", out.route_stats.reassignments),
        ]);
    }
    opts.emit(&table);
}
