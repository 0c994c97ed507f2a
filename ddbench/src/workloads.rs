//! The benchmark workloads, each a fixed set of cells (one cell per
//! storage stack) built from the public `testbed` API and seeded from the
//! command line.

use blkstack::IoPriorityClass;
use dd_nvme::NamespaceId;
use dd_workload::kvsim::KvConfig;
use dd_workload::mailserver::MailConfig;
use dd_workload::{OpKind, YcsbMix};
use simkit::{SimDuration, TraceSpec};
use testbed::scenario::AppKind;
use testbed::{
    FleetSpec, MachinePreset, Scenario, StackSpec, TenantKind, TenantPopulation, TenantSpec,
};

/// Application ops merged into `op_p999_us` on `app_mix`.
pub const APP_OPS: [OpKind; 4] = [OpKind::Read, OpKind::Update, OpKind::Fsync, OpKind::Delete];

/// Operations per app tenant: far more than any window completes, so the
/// apps run for the whole fixed window.
const APP_OPS_BUDGET: u64 = 1 << 40;

/// Which of a workload's two simulated windows a set of cells runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Window {
    /// The long window the modelled metrics are read from.
    Model,
    /// The short window the host timing repeats.
    Host,
}

/// A named benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// §7.1 / Fig. 6 closed loop: 4 L vs 16 T tenants on 4 SvM cores.
    PaperMix,
    /// 1,000 Zipfian open-loop tenants over 4 SvM hosts.
    Fleet1k,
    /// 10,000 Zipfian open-loop tenants over 4 SvM hosts.
    Fleet10k,
    /// Fig. 12 shape: YCSB-A and mailserver beside streaming T tenants.
    AppMix,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "paper_mix" => Some(Workload::PaperMix),
            "fleet_1k" => Some(Workload::Fleet1k),
            "fleet_10k" => Some(Workload::Fleet10k),
            "app_mix" => Some(Workload::AppMix),
            _ => None,
        }
    }

    /// Measured simulated window of every cell (after 100 ms of warm-up).
    /// The modelled metrics need many samples, so their window is long;
    /// the host timing repeats short windows, because a run's fastest
    /// repeat is only steady when there are many of them.
    pub fn window(self, window: Window) -> SimDuration {
        let ms = match (self, window) {
            (Workload::PaperMix, Window::Model) => 4_000,
            (Workload::AppMix, Window::Model) => 15_000,
            (_, Window::Model) => 90_000,
            (Workload::PaperMix | Workload::AppMix, Window::Host) => 1_000,
            (_, Window::Host) => 3_000,
        };
        SimDuration::from_millis(ms)
    }

    /// The latency SLO the benchmark puts on every L tenant that has none:
    /// QWin's 2 ms, except on `paper_mix`, where no Daredevil L I/O takes
    /// 2 ms and the share would read a constant 0.
    pub fn l_slo(self) -> SimDuration {
        match self {
            Workload::PaperMix => SimDuration::from_micros(500),
            _ => SimDuration::from_millis(2),
        }
    }

    /// Trace ring size for the traced repeats: large enough that the
    /// ring never wraps on one machine of the host window (checked:
    /// `trace.dropped` must be 0).
    pub fn trace_cap(self) -> usize {
        match self {
            Workload::PaperMix | Workload::AppMix => 1 << 21,
            Workload::Fleet1k | Workload::Fleet10k => 1 << 18,
        }
    }

    /// The workload's cells for `window`, every one seeded with `seed`.
    pub fn cells(self, seed: u64, window: Window) -> Vec<Cell> {
        let mut cells = match self {
            Workload::PaperMix => [
                StackSpec::vanilla(),
                StackSpec::blk_switch(),
                StackSpec::overprov(),
                StackSpec::daredevil(),
            ]
            .into_iter()
            .map(|stack| {
                Cell::Single(Scenario::multi_tenant_fio(
                    stack,
                    4,
                    16,
                    4,
                    MachinePreset::SvM,
                ))
            })
            .collect::<Vec<_>>(),
            Workload::Fleet1k | Workload::Fleet10k => {
                let tenants = if self == Workload::Fleet1k {
                    1_000
                } else {
                    10_000
                };
                [StackSpec::daredevil(), StackSpec::vanilla()]
                    .into_iter()
                    .map(|stack| Cell::Fleet {
                        spec: FleetSpec::new(
                            format!("fleet{tenants}-{}", stack.name()),
                            4,
                            MachinePreset::SvM,
                            stack,
                            TenantPopulation::zipfian(tenants, 20_000.0),
                        ),
                        seed,
                    })
                    .collect()
            }
            Workload::AppMix => [
                StackSpec::vanilla(),
                StackSpec::blk_switch(),
                StackSpec::daredevil(),
            ]
            .into_iter()
            .map(|stack| Cell::Single(app_mix_scenario(stack)))
            .collect(),
        };
        for cell in &mut cells {
            match cell {
                Cell::Single(s) => {
                    s.knobs.seed = seed;
                    for t in s.tenants.iter_mut().filter(|t| t.class_label == "L") {
                        t.slo.get_or_insert(self.l_slo());
                    }
                }
                Cell::Fleet { spec, .. } => spec.knobs.seed = POPULATION_SEED,
            }
            let knobs = cell.knobs_mut();
            knobs.warmup = SimDuration::from_millis(100);
            knobs.measure = self.window(window);
        }
        cells
    }
}

/// The `app_mix` cell for one stack: one YCSB-A and one mailserver tenant
/// (real-time ionice, labelled `L` so the L-class metrics measure their
/// I/O) beside 8 streaming 128 KiB sequential-read T tenants on 4 cores.
fn app_mix_scenario(stack: StackSpec) -> Scenario {
    let mut s = Scenario::new(
        format!("{}-app_mix", stack.name()),
        MachinePreset::SvM,
        stack,
    );
    s.core_pool = 4;
    let app = |core: u16, kind: AppKind| TenantSpec {
        class_label: "L",
        ionice: IoPriorityClass::RealTime,
        core,
        nsid: NamespaceId(1),
        kind: TenantKind::App(kind),
        slo: None,
    };
    s.tenants.push(app(
        0,
        AppKind::Ycsb {
            mix: YcsbMix::A,
            config: app_mix_kv(),
            ops: APP_OPS_BUDGET,
        },
    ));
    s.tenants.push(app(
        1,
        AppKind::Mailserver {
            config: MailConfig::default(),
            ops: APP_OPS_BUDGET,
        },
    ));
    for i in 0..8u16 {
        s.tenants.push(TenantSpec {
            class_label: "T",
            ionice: IoPriorityClass::BestEffort,
            core: i % 4,
            nsid: NamespaceId(1),
            kind: TenantKind::Fio(dd_workload::tenants::streaming_job()),
            slo: None,
        });
    }
    s
}

/// The Fig. 12 kvsim sizing `app_mix` runs YCSB-A over.
pub fn app_mix_kv() -> KvConfig {
    KvConfig {
        keys: 200_000,
        cache_blocks: 40_000,
        memtable_entries: 500,
        ..KvConfig::default()
    }
}

/// Seed of the fleet population expansion (which ranks are L or T, and
/// their arrival phases): fixed, so every run seed measures the same
/// fleet under different traffic.
const POPULATION_SEED: u64 = 42;

/// Machine seed of fleet host `h` for run seed `seed` (SplitMix64).
fn host_seed(seed: u64, h: u64) -> u64 {
    let mut z = seed.wrapping_add((h + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One cell: a single machine, or a fleet of machines on one stack.
#[derive(Clone, Debug)]
pub enum Cell {
    /// One scenario, one machine.
    Single(Scenario),
    /// A fleet: `FleetSpec::expand` yields one scenario per host.
    Fleet {
        /// The fleet; its `knobs.seed` fixes the population.
        spec: FleetSpec,
        /// The run seed each host's machine seed derives from.
        seed: u64,
    },
}

impl Cell {
    fn knobs_mut(&mut self) -> &mut testbed::RunKnobs {
        match self {
            Cell::Single(s) => &mut s.knobs,
            Cell::Fleet { spec, .. } => &mut spec.knobs,
        }
    }

    /// Display name of the cell's stack.
    pub fn stack(&self) -> &'static str {
        match self {
            Cell::Single(s) => s.stack.name(),
            Cell::Fleet { spec, .. } => spec.stack.name(),
        }
    }

    /// The per-machine scenarios of the cell (the set-up's expand phase).
    pub fn expand(&self) -> Vec<Scenario> {
        match self {
            Cell::Single(s) => vec![s.clone()],
            Cell::Fleet { spec, seed } => {
                let mut hosts = spec.expand();
                for (h, s) in hosts.iter_mut().enumerate() {
                    s.knobs.seed = host_seed(*seed, h as u64);
                }
                hosts
            }
        }
    }

    /// Offered open-loop rate of the whole cell, if it is open loop.
    pub fn offered_iops(&self) -> Option<f64> {
        match self {
            Cell::Single(_) => None,
            Cell::Fleet { spec, .. } => Some(spec.population.fleet_iops),
        }
    }

    /// A copy of the cell with span tracing set to `trace`.
    pub fn with_trace(&self, trace: Option<TraceSpec>) -> Cell {
        let mut c = self.clone();
        c.knobs_mut().trace = trace;
        c
    }
}
