//! The machine: a deterministic event loop over CPU, device, and stack.
//!
//! Event flow for one FIO I/O:
//!
//! ```text
//! Submit work on tenant core ──(stack.submit)──▶ NSQ entry + doorbell
//!   ▶ device FetchDone ▶ flash ▶ CmdDone ▶ CQE + IRQ raise
//!   ▶ IrqDeliver on vector core ▶ Isr work ▶ stack.on_irq ▶ BioCompletion
//!   ▶ Completed event at its delivery timestamp ▶ stats + Resubmit work
//! ```
//!
//! All stack/device effects apply at work-item start; the core then stays
//! busy for the work's returned duration (see `dd_cpu` for the dispatch
//! protocol and DESIGN.md §4 for why the approximation is sound here).

use std::collections::HashMap;

use blkstack::blkmq::VanillaBlkMq;
use blkstack::stack::{StackEnv, StorageStack};
use blkstack::{Bio, BioCompletion, BioId, IoPriorityClass, Pid, TaskStruct};
use blkswitch::BlkSwitchStack;
use daredevil::DaredevilStack;
use dd_cpu::{CpuSystem, HostCosts, WorkClass};
use dd_metrics::{LatencyHistogram, RunSummary, TenantSummary, TimeSeries};
use dd_nvme::spec::bytes_to_blocks;
use dd_nvme::{CqId, DeviceOutput, NamespaceId, NvmeDevice, NvmeEvent};
use dd_overprov::OverprovStack;
use dd_virtio::{VirtioBlk, VqMode};
use dd_workload::checkpoint::CheckpointWorkload;
use dd_workload::mailserver::MailserverWorkload;
use dd_workload::{AppWorkload, FioJob, IoDesc, OpKind, OpStep, Placement, YcsbWorkload};
use simkit::{EventQueue, RunArena, SimDuration, SimRng, SimTime};

use crate::runout::{CapacityProbe, ClassSeries, RunOutput};
use crate::scenario::{AppKind, Scenario, StackSpec, TenantKind};

/// Events of the machine loop.
enum Event {
    /// Internal device event.
    Dev(NvmeEvent),
    /// A core has queued work and no running item: pick the next.
    CoreDispatch(u16),
    /// The running work item of a core finished.
    CoreDone(u16),
    /// An interrupt fire reaches a core. One fire can carry several CQs:
    /// raises that target the same core at the same instant are merged at
    /// drain time, and `more` holds the extra CQ ids (< 64) as a bitmask —
    /// the ISR then drains every raised same-core CQ off a single
    /// event-loop dispatch. `more == 0` is the common singleton fire.
    IrqDeliver { cq: CqId, core: u16, more: u64 },
    /// A bio completion is delivered to its tenant.
    Completed(BioCompletion),
    /// Periodic stack housekeeping (blk-switch steering).
    StackTick,
    /// Fig. 14: flip every tenant's ionice.
    IoniceStorm,
    /// Fig. 13: move a random tenant to a random core.
    MigrateStorm,
    /// A rate-limited FIO slot's think time expired: reissue.
    WakeResubmit(Pid),
    /// Measurement window opens.
    EndWarmup,
    /// Fault-recovery scan: poll orphaned CQs, redrive stalled NSQs.
    /// Scheduled only when the scenario injects faults.
    FaultWatchdog,
    /// Run ends.
    Stop,
}

/// Work payloads executed on cores.
enum Work {
    /// Tenant submission syscall carrying `nr` new I/Os.
    Submit { pid: Pid, nr: u32 },
    /// FIO slot refill: reap one completion and submit one I/O.
    Resubmit { pid: Pid },
    /// Interrupt service routine for a CQ.
    Isr { cq: CqId },
    /// Execute the next step of an application op.
    AppStep { pid: Pid },
    /// Apply a runtime ionice change.
    IoniceUpdate { pid: Pid, class: IoPriorityClass },
    /// Context-switch cost of landing a migrated tenant.
    MigrationLand,
}

/// Progress of the current application op.
struct OpState {
    kind: OpKind,
    steps: Vec<OpStep>,
    idx: usize,
    started: SimTime,
    waiting_ios: u32,
}

enum Driver {
    Fio(FioJob),
    App {
        workload: Box<dyn AppWorkload>,
        current: Option<OpState>,
        done: bool,
    },
}

struct Tenant {
    pid: Pid,
    class_label: &'static str,
    ionice: IoPriorityClass,
    core: u16,
    nsid: NamespaceId,
    ns_blocks: u64,
    driver: Driver,
    summary: TenantSummary,
    rng: SimRng,
    seq_cursor: u64,
    /// Per-tenant latency SLO (None = no accounting).
    slo: Option<SimDuration>,
    /// Cached position of this tenant's class in `Machine::series`
    /// (populated on first in-window completion; the per-completion hot
    /// path then indexes instead of hashing the label).
    series_idx: Option<u32>,
}

/// Concrete stack storage (keeps concrete-type introspection available).
// One holder exists per run; the variant size spread is irrelevant.
#[allow(clippy::large_enum_variant)]
enum StackHolder {
    Vanilla(VanillaBlkMq),
    BlkSwitch(BlkSwitchStack),
    Overprov(OverprovStack),
    Daredevil(DaredevilStack),
    Virtio(VirtioBlk),
}

impl StackHolder {
    fn as_dyn(&mut self) -> &mut dyn StorageStack {
        match self {
            StackHolder::Vanilla(s) => s,
            StackHolder::BlkSwitch(s) => s,
            StackHolder::Overprov(s) => s,
            StackHolder::Daredevil(s) => s,
            StackHolder::Virtio(s) => s,
        }
    }

    fn as_dyn_ref(&self) -> &dyn StorageStack {
        match self {
            StackHolder::Vanilla(s) => s,
            StackHolder::BlkSwitch(s) => s,
            StackHolder::Overprov(s) => s,
            StackHolder::Daredevil(s) => s,
            StackHolder::Virtio(s) => s,
        }
    }

    fn route_stats(&self) -> daredevil::RouteStats {
        match self {
            StackHolder::Daredevil(s) => s.troute_stats(),
            _ => daredevil::RouteStats::default(),
        }
    }
}

/// The executing machine.
pub struct Machine {
    scenario: Scenario,
    queue: EventQueue<Event>,
    cpu: CpuSystem<Work>,
    device: NvmeDevice,
    stack: StackHolder,
    /// Dense by pid: tenant `Pid(p)` lives at index `p - 1` (pids are
    /// assigned contiguously at build time and never removed).
    tenants: Vec<Tenant>,
    tenant_order: Vec<Pid>,
    rng: SimRng,
    costs: HostCosts,
    // Scratch buffers reused across calls.
    dev_out: DeviceOutput,
    comps: Vec<BioCompletion>,
    migs: Vec<(Pid, u16)>,
    bio_scratch: Vec<Bio>,
    next_bio_id: u64,
    now: SimTime,
    window_start: SimTime,
    stop_at: SimTime,
    cpu_baseline: Vec<SimDuration>,
    // Keyed by the tenants' `&'static` class labels; the handful of classes
    // makes a scan-on-miss vec (plus the per-tenant cached index) cheaper
    // than hashing the label on every in-window completion. Converted to
    // owned keys in the output.
    series: Vec<(&'static str, ClassSeries)>,
    op_lat: HashMap<OpKind, LatencyHistogram>,
    active_apps: usize,
    events_processed: u64,
    /// Per-CQ cumulative-reap snapshot at the previous watchdog tick
    /// (`u64::MAX` = not under observation). A raised vector whose CQ
    /// reaped nothing across a full tick gets a polling-fallback ISR.
    wd_reaped: Vec<u64>,
    /// Polling-fallback ISRs fired by the watchdog.
    polls_fired: u64,
    /// ISRs that found an empty CQ (poll raced a real delivery).
    spurious_isrs: u64,
    /// Hot-path capacity snapshot taken at warmup end (the capacity-
    /// stability gate compares it against the run-end snapshot).
    cap_warmup: CapacityProbe,
}

/// Builds a bio from an I/O descriptor on behalf of a tenant.
fn materialize(tenant: &mut Tenant, io: IoDesc, id: u64, now: SimTime) -> Bio {
    let blocks = bytes_to_blocks(io.bytes.max(1)).max(1) as u64;
    let max_start = tenant.ns_blocks.saturating_sub(blocks);
    let offset = match io.placement {
        Placement::Random => tenant.rng.gen_range(max_start + 1),
        Placement::Sequential => {
            let o = tenant.seq_cursor % (max_start + 1);
            tenant.seq_cursor = o + blocks;
            o
        }
        Placement::Block(b) => b % (max_start + 1),
    };
    tenant.summary.ios_issued += 1;
    Bio {
        id: BioId(id),
        tenant: tenant.pid,
        core: tenant.core,
        nsid: tenant.nsid,
        op: io.op,
        offset_blocks: offset,
        bytes: io.bytes,
        flags: io.flags,
        issued_at: now,
    }
}

impl Machine {
    /// Builds a machine from a validated scenario.
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails validation.
    pub fn new(scenario: Scenario) -> Self {
        Self::new_in(scenario, &mut RunArena::new())
    }

    /// Builds a machine from a validated scenario, adopting warm
    /// allocations from `arena` where a previous [`Machine::run_in`] parked
    /// them. On an empty arena this is exactly [`Machine::new`]; on a warm
    /// one, the event queue, CPU system, device output, scratch buffers,
    /// tenant/series tables, and the stack's request map all reuse their
    /// previous runs' capacity. Behaviour is byte-identical either way —
    /// every recycled structure's reset restores fresh logical state
    /// (see `simkit::arena`).
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails validation.
    pub fn new_in(scenario: Scenario, arena: &mut RunArena) -> Self {
        scenario
            .validate()
            .unwrap_or_else(|e| panic!("invalid scenario '{}': {e}", scenario.name));
        let nr_cores = scenario.nr_cores();
        let mut nvme_cfg = scenario.nvme.clone();
        // GC knob: age the drive at build time (the knob is pure config,
        // equivalent to baking it into `nvme` up front).
        if let Some(gc) = scenario.knobs.gc {
            nvme_cfg.flash = nvme_cfg.flash.with_gc(gc);
        }
        fn needs_wrr(spec: &StackSpec) -> bool {
            match spec {
                StackSpec::Overprov => true,
                StackSpec::Virtio { inner, .. } => needs_wrr(inner),
                _ => false,
            }
        }
        if needs_wrr(&scenario.stack)
            && matches!(nvme_cfg.arbitration, dd_nvme::Arbitration::RoundRobin)
        {
            // The overprovision baseline requires device WRR support; the
            // machine configures it the way a FlashShare deployment would.
            nvme_cfg = nvme_cfg.with_wrr(dd_nvme::WrrWeights::default());
        }
        let mut device = NvmeDevice::new(nvme_cfg, nr_cores);
        // Fault injection: generate the whole schedule up front from the
        // spec seed and the device geometry — purely virtual-time, so runs
        // with faults stay exactly as deterministic as runs without.
        if let Some(spec) = scenario.knobs.faults {
            let horizon = scenario.knobs.warmup + scenario.knobs.measure;
            device.install_faults(simkit::FaultPlan::generate(
                &spec,
                device.fault_geometry(),
                horizon,
            ));
        }
        // Policy knob: applied to the spec at build time, like GC above.
        let stack_spec = match scenario.knobs.policy {
            Some(p) => scenario.stack.clone().with_policy(p),
            None => scenario.stack.clone(),
        };
        let mut stack = build_stack(&stack_spec, nr_cores, &device);
        // Swap the constructor's empty shells for warm parked buffers (the
        // shared arena tags make a map parked by any stack flavour
        // adoptable here), then pre-size the slab request maps and recycled
        // scratch from the same shape hint the event queue uses, so the
        // steady state allocates nothing on the hot path.
        stack.as_dyn().adopt_buffers(arena);
        stack.as_dyn().reserve(scenario.event_capacity_hint());
        let mut rng = SimRng::new(scenario.knobs.seed);
        let mut tenants: Vec<Tenant> = arena.take(0);
        let mut tenant_order: Vec<Pid> = arena.take(0);
        let mut active_apps = 0usize;
        for (i, spec) in scenario.tenants.iter().enumerate() {
            let pid = Pid(i as u64 + 1);
            let ns_blocks = scenario.nvme.namespace_blocks[spec.nsid.index()];
            let driver = match &spec.kind {
                TenantKind::Fio(job) => Driver::Fio(*job),
                TenantKind::App(app) => {
                    active_apps += 1;
                    // dd-alloc-allowlist: workload boxing happens once per
                    // tenant at machine construction, never during dispatch.
                    // The `new_in` constructors adopt parked workload scratch
                    // (key-popularity tables, page caches) from the arena, so
                    // small sweep cells stop rebuilding them per run.
                    let workload: Box<dyn AppWorkload> = match app.clone() {
                        AppKind::Ycsb { mix, config, ops } => {
                            Box::new(YcsbWorkload::new_in(mix, config, ops, arena)) // dd-alloc-allowlist: construction
                        }
                        AppKind::Mailserver { config, ops } => {
                            Box::new(MailserverWorkload::new_in(config, ops, arena)) // dd-alloc-allowlist: construction
                        }
                        AppKind::Checkpoint {
                            config,
                            checkpoints,
                        } => Box::new(CheckpointWorkload::new(config, checkpoints)), // dd-alloc-allowlist: construction
                    };
                    Driver::App {
                        workload,
                        current: None,
                        done: false,
                    }
                }
            };
            tenants.push(Tenant {
                pid,
                class_label: spec.class_label,
                ionice: spec.ionice,
                core: spec.core,
                nsid: spec.nsid,
                ns_blocks,
                driver,
                summary: TenantSummary::new(pid.0, spec.class_label),
                rng: rng.fork(),
                seq_cursor: rng.gen_range(ns_blocks.max(1)),
                slo: spec.slo,
                series_idx: None,
            });
            tenant_order.push(pid);
        }
        let window_start = SimTime::ZERO + scenario.knobs.warmup;
        let stop_at = window_start + scenario.knobs.measure;
        // Span tracing: install the (pre-allocated) sink once, up front;
        // when the scenario leaves it off, every instrumentation point
        // costs one `enabled()` branch.
        let mut dev_out: DeviceOutput = arena.take(0);
        dev_out.trace.reconfigure(scenario.knobs.trace);
        let mut cpu: CpuSystem<Work> = arena.take(0);
        cpu.configure(&scenario.topology);
        // Pre-sized from the scenario shape (Σ queue depth × the events
        // each in-flight I/O can hold) so the dispatch loop never grows
        // the queue mid-run.
        let mut queue: EventQueue<Event> = arena.take(0);
        queue.reserve(scenario.event_capacity_hint());
        let mut bio_scratch: Vec<Bio> = arena.take(0);
        bio_scratch.reserve(64);
        Machine {
            cpu,
            queue,
            device,
            stack,
            tenants,
            tenant_order,
            rng,
            costs: HostCosts::default(),
            dev_out,
            comps: arena.take(0),
            migs: arena.take(0),
            bio_scratch,
            next_bio_id: 0,
            now: SimTime::ZERO,
            window_start,
            stop_at,
            cpu_baseline: arena.take(0),
            series: arena.take(0),
            op_lat: HashMap::new(),
            active_apps,
            events_processed: 0,
            wd_reaped: arena.take(0),
            polls_fired: 0,
            spurious_isrs: 0,
            cap_warmup: CapacityProbe::default(),
            scenario,
        }
    }

    /// Snapshots the hot-path capacities (stack request slabs + event
    /// queue backing) for the capacity-stability accounting.
    fn capacity_probe(&mut self) -> CapacityProbe {
        CapacityProbe {
            io_slots: self.stack.as_dyn().io_capacity(),
            events: self.queue.capacity(),
        }
    }

    /// The tenant for `pid`, if any (pids are dense, so this is an index).
    fn tenant_mut(&mut self, pid: Pid) -> Option<&mut Tenant> {
        self.tenants.get_mut((pid.0 as usize).wrapping_sub(1))
    }

    fn tenant(&self, pid: Pid) -> &Tenant {
        &self.tenants[(pid.0 - 1) as usize]
    }

    fn enqueue_work(&mut self, core: u16, class: WorkClass, work: Work) {
        if self.cpu.enqueue(core, class, work) {
            self.queue.push(self.now, Event::CoreDispatch(core));
        }
    }

    /// Moves pending device effects, completions, and migrations into the
    /// event queue. Must run after every stack/device interaction.
    ///
    /// Batched insertion: one `push_batch` per effect vector amortises the
    /// queue's cursor/sequence bookkeeping over the whole drain instead of
    /// paying it per event. The iteration orders reproduce the historical
    /// push order exactly (FIFO for device events, reverse for irqs and
    /// completions — the old `pop()` loops), so equal-time events keep the
    /// same sequence tie-break.
    fn drain_effects(&mut self) {
        let queue = &mut self.queue;
        queue.push_batch(
            self.dev_out
                .events
                .drain(..)
                .map(|(at, ev)| (at, Event::Dev(ev))),
        );
        // Cross-CQ fire merge: consecutive raises (in the historical reverse
        // push order) that hit the same core at the same instant collapse
        // into one IrqDeliver carrying a CQ bitmask. A singleton raise — the
        // only shape any current device path produces per drain — takes the
        // `more == 0` fast path and keeps its historical (time, seq) slot.
        {
            let irqs = &mut self.dev_out.irqs;
            let mut i = irqs.len();
            while i > 0 {
                i -= 1;
                let head = irqs[i];
                let mut more = 0u64;
                while i > 0 {
                    let cand = irqs[i - 1];
                    if cand.at != head.at || cand.core != head.core || cand.cq.0 >= 64 {
                        break;
                    }
                    more |= 1u64 << cand.cq.0;
                    i -= 1;
                }
                queue.push(
                    head.at,
                    Event::IrqDeliver {
                        cq: head.cq,
                        core: head.core,
                        more,
                    },
                );
            }
            irqs.clear();
        }
        queue.push_batch(
            self.comps
                .drain(..)
                .rev()
                .map(|c| (c.completed_at, Event::Completed(c))),
        );
        // Migrations keep the per-item loop: each one mutates tenant state
        // and enqueues core work, not just a queue insert.
        while let Some((pid, core)) = self.migs.pop() {
            if let Some(t) = self.tenant_mut(pid) {
                t.core = core;
            }
            self.enqueue_work(core, WorkClass::Task, Work::MigrationLand);
        }
    }

    /// Runs one stack call with a fresh environment; returns its CPU cost.
    fn with_env<R>(&mut self, f: impl FnOnce(&mut dyn StorageStack, &mut StackEnv<'_>) -> R) -> R {
        // The one-allocation reuse contract (`DeviceOutput::clear`): the
        // machine owns a single output buffer and must have drained it fully
        // before lending it to the next device interaction.
        debug_assert!(
            self.dev_out.is_empty(),
            "DeviceOutput must be drained before reuse"
        );
        let mut env = StackEnv {
            now: self.now,
            device: &mut self.device,
            dev_out: &mut self.dev_out,
            completions: &mut self.comps,
            migrations: &mut self.migs,
            rng: &mut self.rng,
            costs: &self.costs,
        };
        let r = f(self.stack.as_dyn(), &mut env);
        // `env` borrows several fields; end its scope before draining.
        let _ = env;
        self.drain_effects();
        r
    }

    /// Generates `nr` fresh FIO bios for a tenant into the reusable scratch
    /// buffer (taken out of `self`, handed back by the caller — the
    /// dispatch loop allocates nothing in steady state).
    fn gen_fio_bios(&mut self, pid: Pid, nr: u32) -> Vec<Bio> {
        let mut bios = std::mem::take(&mut self.bio_scratch);
        bios.clear();
        let now = self.now;
        let mut ids = self.next_bio_id;
        let tenant = self.tenant_mut(pid).expect("known tenant");
        let Driver::Fio(job) = &tenant.driver else {
            panic!("fio bios for a non-fio tenant");
        };
        let job = *job;
        for _ in 0..nr {
            let io = job.next_io(&mut tenant.rng);
            let bio = materialize(tenant, io, ids, now);
            ids += 1;
            bios.push(bio);
        }
        self.next_bio_id = ids;
        bios
    }

    /// Executes one work payload on `core`; returns its CPU cost.
    fn exec_work(&mut self, core: u16, work: Work) -> SimDuration {
        match work {
            Work::Submit { pid, nr } => {
                let bios = self.gen_fio_bios(pid, nr);
                let cost = self.with_env(|stack, env| stack.submit(&bios, env));
                self.bio_scratch = bios;
                cost
            }
            Work::Resubmit { pid } => {
                let bios = self.gen_fio_bios(pid, 1);
                let cost = self.with_env(|stack, env| stack.submit(&bios, env));
                self.bio_scratch = bios;
                self.costs.reap_per_rq + cost
            }
            Work::Isr { cq } => {
                if self.scenario.knobs.faults.is_some() && self.device.cq_pending(cq) == 0 {
                    self.spurious_isrs += 1;
                }
                self.with_env(|stack, env| stack.on_irq(cq, core, env))
            }
            Work::AppStep { pid } => self.app_step(pid),
            Work::IoniceUpdate { pid, class } => {
                if let Some(t) = self.tenant_mut(pid) {
                    t.ionice = class;
                }
                self.with_env(|stack, env| stack.update_ionice(pid, class, env));
                self.costs.syscall_base + self.costs.ionice_update
            }
            Work::MigrationLand => self.costs.context_switch,
        }
    }

    /// Executes the next application step of `pid`; returns its CPU cost.
    fn app_step(&mut self, pid: Pid) -> SimDuration {
        let now = self.now;
        let mut ids = self.next_bio_id;
        // Bios are staged into the reusable scratch buffer (no per-step
        // allocation); it is handed back on every exit path below.
        let mut bios = std::mem::take(&mut self.bio_scratch);
        bios.clear();
        // Stage 1: advance the tenant's op state, producing an action.
        enum Action {
            AlreadyDone,
            Finished,
            OpDone { kind: OpKind, started: SimTime },
            Compute(SimDuration),
            Issue,
        }
        let action = {
            let tenant = self.tenant_mut(pid).expect("known tenant");
            let Driver::App {
                workload,
                current,
                done,
            } = &mut tenant.driver
            else {
                panic!("app step for a non-app tenant");
            };
            if *done {
                Action::AlreadyDone
            } else {
                if current.is_none() {
                    // Split borrows: next_op needs the workload and the rng.
                    match workload.next_op(&mut tenant.rng) {
                        Some(op) => {
                            *current = Some(OpState {
                                kind: op.kind,
                                steps: op.steps,
                                idx: 0,
                                started: now,
                                waiting_ios: 0,
                            });
                        }
                        None => *done = true,
                    }
                }
                match current.as_mut() {
                    None => Action::Finished,
                    Some(st) if st.idx >= st.steps.len() => {
                        let kind = st.kind;
                        let started = st.started;
                        *current = None;
                        Action::OpDone { kind, started }
                    }
                    Some(st) => {
                        let step = st.steps[st.idx].clone();
                        st.idx += 1;
                        match step {
                            OpStep::Compute(d) => Action::Compute(d),
                            OpStep::Io(desc) => {
                                st.waiting_ios = 1;
                                let bio = materialize(tenant, desc, ids, now);
                                ids += 1;
                                bios.push(bio);
                                Action::Issue
                            }
                            OpStep::IoParallel(descs) => {
                                st.waiting_ios = descs.len() as u32;
                                for d in descs {
                                    let bio = materialize(tenant, d, ids, now);
                                    ids += 1;
                                    bios.push(bio);
                                }
                                Action::Issue
                            }
                        }
                    }
                }
            }
        };
        self.next_bio_id = ids;
        // Stage 2: act.
        let cost = match action {
            Action::AlreadyDone => SimDuration::ZERO,
            Action::Finished => self.app_finished(pid),
            Action::OpDone { kind, started } => {
                if now >= self.window_start && kind != OpKind::Maintenance {
                    self.op_lat
                        .entry(kind)
                        .or_default()
                        .record(now.saturating_since(started));
                }
                let core = self.tenant(pid).core;
                self.enqueue_work(core, WorkClass::Task, Work::AppStep { pid });
                SimDuration::from_nanos(200)
            }
            Action::Compute(d) => {
                let core = self.tenant(pid).core;
                self.enqueue_work(core, WorkClass::Task, Work::AppStep { pid });
                d
            }
            Action::Issue => self.with_env(|stack, env| stack.submit(&bios, env)),
        };
        self.bio_scratch = bios;
        cost
    }

    /// A tenant's app workload ran out of ops.
    fn app_finished(&mut self, _pid: Pid) -> SimDuration {
        self.active_apps -= 1;
        if self.active_apps == 0 && self.scenario.stop_when_apps_done {
            self.queue.push(self.now, Event::Stop);
        }
        SimDuration::ZERO
    }

    /// Delivers one bio completion: statistics plus tenant continuation.
    fn handle_completion(&mut self, c: BioCompletion) {
        let window_start = self.window_start;
        let Some(tenant) = self.tenant_mut(c.bio.tenant) else {
            return;
        };
        let in_window = c.completed_at >= window_start;
        if in_window {
            tenant.summary.record_completion(c.latency(), c.bio.bytes);
            if let Some(slo) = tenant.slo {
                if c.latency() > slo {
                    tenant.summary.slo_violations += 1;
                }
            }
        }
        let class = tenant.class_label;
        let core = tenant.core;
        let pid = tenant.pid;
        let cached_series = tenant.series_idx;
        let continuation = match &mut tenant.driver {
            // Open-loop arrival tenants are driven by their wake chain
            // (see `Event::WakeResubmit`): completions only record stats.
            Driver::Fio(job) if job.arrival.is_some() => None,
            Driver::Fio(job) => match job.think_time() {
                // Rate-limited slot: sleep an exponential think time first.
                Some(mean) => {
                    let delay = tenant.rng.gen_exp(mean);
                    self.queue
                        .push(c.completed_at + delay, Event::WakeResubmit(pid));
                    None
                }
                None => Some(Work::Resubmit { pid }),
            },
            Driver::App { current, .. } => match current {
                Some(st) => {
                    debug_assert!(st.waiting_ios > 0, "unexpected app completion");
                    st.waiting_ios -= 1;
                    if st.waiting_ios == 0 {
                        Some(Work::AppStep { pid })
                    } else {
                        None
                    }
                }
                None => None,
            },
        };
        if in_window {
            let idx = match cached_series {
                Some(i) => i as usize,
                None => {
                    // First in-window completion for this tenant: find (or
                    // create) its class row once, then cache the index.
                    let i = match self.series.iter().position(|(k, _)| *k == class) {
                        Some(i) => i,
                        None => {
                            self.series.push((
                                class,
                                ClassSeries {
                                    latency: TimeSeries::new(
                                        self.window_start,
                                        self.scenario.sample_width,
                                    ),
                                    bytes: TimeSeries::new(
                                        self.window_start,
                                        self.scenario.sample_width,
                                    ),
                                },
                            ));
                            self.series.len() - 1
                        }
                    };
                    self.tenant_mut(pid).expect("known tenant").series_idx = Some(i as u32);
                    i
                }
            };
            let entry = &mut self.series[idx].1;
            entry.latency.record_latency(c.completed_at, c.latency());
            entry.bytes.record(c.completed_at, c.bio.bytes);
        }
        if let Some(work) = continuation {
            self.enqueue_work(core, WorkClass::Task, work);
        }
    }

    /// Registers all tenants with the stack and schedules initial work.
    fn bootstrap(&mut self) {
        // Tenants are registered and seeded in pid order — identical to the
        // old tenant_order walk (pids are assigned in insertion order).
        for i in 0..self.tenants.len() {
            let task = {
                let t = &self.tenants[i];
                TaskStruct::new(t.pid, t.core, t.ionice, t.nsid, t.class_label)
            };
            self.with_env(|stack, env| stack.register_tenant(&task, env));
        }
        for i in 0..self.tenants.len() {
            // Open-loop arrival tenants start with one staggered wake-up
            // (drawn from their own rng stream, so a 10k-tenant fleet does
            // not thundering-herd at t=0) instead of a closed-loop burst.
            let arrival_wake = {
                let t = &mut self.tenants[i];
                match &t.driver {
                    Driver::Fio(job) => job.arrival.map(|arr| {
                        let mean = arr.mean_gap(SimTime::ZERO);
                        (t.pid, t.rng.gen_exp(mean))
                    }),
                    Driver::App { .. } => None,
                }
            };
            if let Some((pid, delay)) = arrival_wake {
                self.queue
                    .push(SimTime::ZERO + delay, Event::WakeResubmit(pid));
                continue;
            }
            let (core, work) = {
                let t = &self.tenants[i];
                match &t.driver {
                    Driver::Fio(job) => (
                        t.core,
                        Work::Submit {
                            pid: t.pid,
                            nr: job.iodepth,
                        },
                    ),
                    Driver::App { .. } => (t.core, Work::AppStep { pid: t.pid }),
                }
            };
            self.enqueue_work(core, WorkClass::Task, work);
        }
        self.queue.push(SimTime::ZERO, Event::StackTick);
        self.queue.push(self.window_start, Event::EndWarmup);
        self.queue.push(self.stop_at, Event::Stop);
        if let Some(interval) = self.scenario.ionice_storm {
            self.queue
                .push(SimTime::ZERO + interval, Event::IoniceStorm);
        }
        if let Some(interval) = self.scenario.migrate_storm {
            self.queue
                .push(SimTime::ZERO + interval, Event::MigrateStorm);
        }
        if let Some(spec) = self.scenario.knobs.faults {
            self.wd_reaped.clear();
            self.wd_reaped
                .resize(self.device.nr_cqs() as usize, u64::MAX);
            self.queue
                .push(SimTime::ZERO + spec.watchdog_period, Event::FaultWatchdog);
        }
    }

    /// One fault-recovery watchdog tick (only scheduled under fault
    /// injection).
    ///
    /// Device side: a CQ whose vector is stuck `Raised` with pending CQEs
    /// and no drain progress since the previous tick has lost its raise
    /// (or its delivery wedged) — fall back to polling by queuing an ISR
    /// on the vector's core. The ISR drains the orphaned CQ and its
    /// `isr_done` re-arms the vector; if it races a real delivery, the
    /// second run finds an empty CQ and is tolerated as spurious.
    ///
    /// Host side: let the stack flush parked commands and redrive stalled
    /// NSQs ([`StorageStack::on_watchdog`], bounded retry/backoff).
    fn fault_watchdog(&mut self) {
        for i in 0..self.wd_reaped.len() {
            let cq = CqId(i as u16);
            if self.device.cq_pending(cq) == 0 || !self.device.irq_raised(cq) {
                self.wd_reaped[i] = u64::MAX;
                continue;
            }
            let reaped = self.device.cq_reaped(cq);
            let last = std::mem::replace(&mut self.wd_reaped[i], reaped);
            if last != u64::MAX && reaped == last {
                // Stuck raised with zero reap progress across a full
                // period: the raise was lost — poll.
                self.wd_reaped[i] = u64::MAX;
                self.polls_fired += 1;
                let core = self.device.irq_core(cq);
                self.enqueue_work(core, WorkClass::HardIrq, Work::Isr { cq });
            }
        }
        self.with_env(|stack, env| stack.on_watchdog(env));
    }

    /// Runs the scenario to completion.
    pub fn run(self) -> RunOutput {
        self.run_in(&mut RunArena::new())
    }

    /// Runs the scenario to completion, parking the machine's growable
    /// structures in `arena` at teardown so the next [`Machine::new_in`]
    /// on this arena rebuilds nothing. The output is byte-identical to
    /// [`Machine::run`].
    pub fn run_in(mut self, arena: &mut RunArena) -> RunOutput {
        self.bootstrap();
        let mut window_end = self.stop_at;
        while let Some((at, ev)) = self.queue.pop() {
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.events_processed += 1;
            match ev {
                Event::Stop => {
                    window_end = self.now.min(self.stop_at);
                    break;
                }
                Event::EndWarmup => {
                    self.cpu_baseline = self.cpu.busy_snapshot(self.now);
                    self.cap_warmup = self.capacity_probe();
                }
                Event::FaultWatchdog => {
                    self.fault_watchdog();
                    let period = self
                        .scenario
                        .knobs
                        .faults
                        .expect("watchdog only scheduled with faults")
                        .watchdog_period;
                    // Keep scanning to the end of the run: the watchdog
                    // must outlive the last fault window even if every
                    // tenant is blocked (its event also keeps the queue
                    // non-empty, so a faulted lull cannot end the run
                    // early).
                    if self.now < self.stop_at {
                        self.queue.push(self.now + period, Event::FaultWatchdog);
                    }
                }
                Event::Dev(dev_ev) => {
                    let now = self.now;
                    self.device.handle_event(dev_ev, now, &mut self.dev_out);
                    self.drain_effects();
                }
                Event::IrqDeliver { cq, core, more } => {
                    // One fire, one ISR work item per raised CQ: the works
                    // drain back-to-back on the core's HardIrq lane, but
                    // each keeps its own `stack.on_irq` cost and per-CQ
                    // acknowledge, so coalescing timers, irqloss recovery,
                    // and the watchdog's `cq_reaped` snapshots still see
                    // per-CQ state.
                    self.enqueue_work(core, WorkClass::HardIrq, Work::Isr { cq });
                    let mut rest = more;
                    while rest != 0 {
                        let b = rest.trailing_zeros() as u16;
                        rest &= rest - 1;
                        self.enqueue_work(core, WorkClass::HardIrq, Work::Isr { cq: CqId(b) });
                    }
                }
                Event::CoreDispatch(core) => {
                    if let Some((_class, work)) = self.cpu.take_next(core) {
                        let cost = self.exec_work(core, work);
                        let fin = self.cpu.begin(core, self.now, cost);
                        self.queue.push(fin, Event::CoreDone(core));
                    }
                }
                Event::CoreDone(core) => {
                    if self.cpu.finish(core, self.now) {
                        self.queue.push(self.now, Event::CoreDispatch(core));
                    }
                }
                Event::Completed(c) => self.handle_completion(c),
                Event::WakeResubmit(pid) => {
                    if let Some(t) = self.tenant_mut(pid) {
                        let core = t.core;
                        // Open-loop arrivals: the wake chain reschedules
                        // itself from the *arrival* clock (diurnal × burst
                        // modulated), independent of completions — queues
                        // grow when the host falls behind, exactly the
                        // overload behaviour a closed loop hides.
                        let next_wake = match &t.driver {
                            Driver::Fio(job) => job.arrival.map(|arr| {
                                let mean = arr.mean_gap(at);
                                t.rng.gen_exp(mean)
                            }),
                            _ => None,
                        };
                        if let Some(delay) = next_wake {
                            let next = at + delay;
                            if next < self.stop_at {
                                self.queue.push(next, Event::WakeResubmit(pid));
                            }
                        }
                        self.enqueue_work(core, WorkClass::Task, Work::Resubmit { pid });
                    }
                }
                Event::StackTick => {
                    if let Some(delay) = self.with_env(|stack, env| stack.on_tick(env)) {
                        self.queue.push(self.now + delay, Event::StackTick);
                    }
                }
                Event::IoniceStorm => {
                    // Dense walk in pid order — the same order the old
                    // tenant_order loop produced.
                    for i in 0..self.tenants.len() {
                        let (pid, core, class) = {
                            let t = &self.tenants[i];
                            let flipped = match t.ionice {
                                IoPriorityClass::RealTime => IoPriorityClass::BestEffort,
                                _ => IoPriorityClass::RealTime,
                            };
                            (t.pid, t.core, flipped)
                        };
                        self.enqueue_work(core, WorkClass::Task, Work::IoniceUpdate { pid, class });
                    }
                    let interval = self.scenario.ionice_storm.expect("storm active");
                    self.queue.push(self.now + interval, Event::IoniceStorm);
                }
                Event::MigrateStorm => {
                    let pid = *self.rng.choose(&self.tenant_order);
                    let core = self.rng.gen_range(self.scenario.core_pool as u64) as u16;
                    if let Some(t) = self.tenant_mut(pid) {
                        t.core = core;
                    }
                    self.with_env(|stack, env| stack.migrate_tenant(pid, core, env));
                    self.enqueue_work(core, WorkClass::Task, Work::MigrationLand);
                    let interval = self.scenario.migrate_storm.expect("storm active");
                    self.queue.push(self.now + interval, Event::MigrateStorm);
                }
            }
            if self.queue.is_empty() {
                window_end = self.now.min(self.stop_at);
                break;
            }
        }

        let core_busy_frac = if self.cpu_baseline.is_empty() {
            vec![0.0; self.cpu.nr_cores() as usize]
        } else {
            self.cpu
                .busy_fractions(self.window_start, &self.cpu_baseline, window_end)
        };
        let summary = RunSummary {
            stack: self.stack.as_dyn_ref().name().to_string(),
            window_start: self.window_start,
            window_end,
            tenants: self
                .tenants
                .iter()
                .map(|t| t.summary.clone())
                .collect(),
            events_processed: self.events_processed,
            core_busy_frac,
        };
        // Harvest the span trace (oldest first) out of the device-output
        // sink; the dropped counter tells consumers whether the ring
        // wrapped mid-run.
        let sink = std::mem::take(&mut self.dev_out.trace);
        let trace_dropped = sink.dropped();
        let stack_stats = self.stack.as_dyn_ref().stats();
        let dev_faults = self.device.fault_stats();
        let fault = dd_metrics::FaultRecovery {
            spikes_applied: dev_faults.spikes_applied,
            vectors_lost: dev_faults.vectors_lost,
            stalls_engaged: dev_faults.stalls_engaged,
            polls_fired: self.polls_fired,
            watchdog_redrives: stack_stats.watchdog_redrives,
            spurious_isrs: self.spurious_isrs,
            irq_raised_total: self.device.irq_raised_total(),
        };
        let cap_end = self.capacity_probe();
        let out = RunOutput {
            summary,
            cap_warmup: self.cap_warmup,
            cap_end,
            series: self
                .series
                .drain(..)
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            trace: sink.into_events(),
            trace_dropped,
            stack_stats,
            op_latencies: self.op_lat,
            flash_queue_delay: self.device.flash().avg_queue_delay(),
            events_processed: self.events_processed,
            route_stats: self.stack.route_stats(),
            fault,
        };
        // Teardown: park every growable structure for the next run on this
        // arena. Values are reset on the way in (`ArenaReset`), so the next
        // `new_in` adopts warm capacity with fresh logical state. The device
        // itself is NOT parked — flash geometry, namespace tables, and fault
        // plans are per-scenario configuration, not recyclable scratch.
        self.stack.as_dyn().park_buffers(arena);
        // App workloads park their own scratch (popularity tables, page
        // caches) before the tenant vector — which owns them — is recycled.
        for t in &mut self.tenants {
            if let Driver::App { workload, .. } = &mut t.driver {
                workload.park_scratch(arena);
            }
        }
        arena.put(0, self.queue);
        arena.put(0, self.cpu);
        arena.put(0, self.dev_out);
        arena.put(0, self.comps);
        arena.put(0, self.migs);
        arena.put(0, self.bio_scratch);
        arena.put(0, self.tenants);
        arena.put(0, self.tenant_order);
        arena.put(0, self.series);
        arena.put(0, self.cpu_baseline);
        arena.put(0, self.wd_reaped);
        out
    }
}

/// Builds a stack holder from a spec (recursing for the virtio wrapper).
fn build_stack(spec: &StackSpec, nr_cores: u16, device: &NvmeDevice) -> StackHolder {
    match spec {
        StackSpec::Vanilla(cfg) => {
            StackHolder::Vanilla(VanillaBlkMq::new(*cfg, nr_cores, device.nr_sqs()))
        }
        StackSpec::BlkSwitch(cfg) => {
            StackHolder::BlkSwitch(BlkSwitchStack::new(*cfg, nr_cores, device.nr_sqs()))
        }
        StackSpec::Overprov => StackHolder::Overprov(OverprovStack::new(nr_cores, device.nr_sqs())),
        StackSpec::Daredevil(cfg) => {
            StackHolder::Daredevil(DaredevilStack::for_device(*cfg, nr_cores, device))
        }
        StackSpec::Virtio { inner, sla_aware } => {
            let inner_holder = build_stack(inner, nr_cores, device);
            // dd-alloc-allowlist: one-time stack boxing at construction, not
            // a dispatch-path allocation.
            let boxed: Box<dyn StorageStack> = match inner_holder {
                StackHolder::Vanilla(s) => Box::new(s), // dd-alloc-allowlist: construction
                StackHolder::BlkSwitch(s) => Box::new(s), // dd-alloc-allowlist: construction
                StackHolder::Overprov(s) => Box::new(s), // dd-alloc-allowlist: construction
                StackHolder::Daredevil(s) => Box::new(s), // dd-alloc-allowlist: construction
                StackHolder::Virtio(_) => panic!("nested virtio is unsupported"),
            };
            let mode = if *sla_aware {
                VqMode::SlaAware
            } else {
                VqMode::Naive
            };
            StackHolder::Virtio(VirtioBlk::new(boxed, mode))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::MachinePreset;

    fn quick(stack: StackSpec, nr_l: u16, nr_t: u16) -> RunOutput {
        let mut s = Scenario::multi_tenant_fio(stack, nr_l, nr_t, 2, MachinePreset::Small);
        s.knobs.warmup = SimDuration::from_millis(5);
        s.knobs.measure = SimDuration::from_millis(40);
        crate::run(s)
    }

    /// Satellite of the fault-injection issue: an aged drive (GC on)
    /// raises the L-latency floor for every stack — erase-after-write is
    /// device-internal blocking no amount of per-SLA queueing removes.
    #[test]
    fn gc_raises_the_latency_floor_for_every_stack() {
        for stack in [StackSpec::vanilla(), StackSpec::daredevil()] {
            let write_t = |mut s: Scenario| {
                for t in &mut s.tenants {
                    if t.class_label == "T" {
                        t.kind = crate::scenario::TenantKind::Fio(
                            dd_workload::tenants::t_tenant_write_job(),
                        );
                    }
                }
                s
            };
            let base = |stack: StackSpec| {
                let mut s = Scenario::multi_tenant_fio(stack, 4, 2, 4, MachinePreset::Small);
                s.knobs.warmup = SimDuration::from_millis(5);
                s.knobs.measure = SimDuration::from_millis(40);
                write_t(s)
            };
            // Heavy aging: one 3 ms erase per two 128 KiB writes. Erases
            // throttle the T-writers (the *mean* can even improve), but
            // any L-read landing on an erasing die eats milliseconds —
            // the floor shows in the tail.
            let gc = dd_nvme::flash::GcConfig {
                write_threshold_pages: 64,
                ..Default::default()
            };
            let name = stack.name();
            let clean = crate::run(base(stack.clone()));
            let mut aged_s = base(stack);
            aged_s.knobs.gc = Some(gc);
            let aged = crate::run(aged_s);
            assert!(
                aged.summary.class("L").ios_completed > 0,
                "{name}: aged drive starved L entirely"
            );
            let clean_p999 = clean.summary.class("L").latency.p999();
            let aged_p999 = aged.summary.class("L").latency.p999();
            assert!(
                aged_p999 > clean_p999 + SimDuration::from_millis(1),
                "{name}: GC must lift the L tail by erase-scale: {:?} -> {:?}",
                clean_p999,
                aged_p999
            );
        }
    }

    #[test]
    fn vanilla_run_completes_ios() {
        let out = quick(StackSpec::vanilla(), 2, 2);
        let l = out.summary.class("L");
        let t = out.summary.class("T");
        assert!(l.ios_completed > 10, "L completed {}", l.ios_completed);
        assert!(t.ios_completed > 10, "T completed {}", t.ios_completed);
        assert!(l.latency.mean() > SimDuration::from_micros(10));
        assert!(out.events_processed > 100);
    }

    #[test]
    fn all_stacks_run_deterministically() {
        for spec in [
            StackSpec::vanilla(),
            StackSpec::blk_switch(),
            StackSpec::daredevil(),
            StackSpec::dare_base(),
            StackSpec::dare_sched(),
        ] {
            let a = quick(spec.clone(), 1, 2);
            let b = quick(spec.clone(), 1, 2);
            assert_eq!(
                a.summary.class("L").ios_completed,
                b.summary.class("L").ios_completed,
                "{} not deterministic",
                a.summary.stack
            );
            assert_eq!(
                a.summary.class("L").latency.p999(),
                b.summary.class("L").latency.p999()
            );
        }
    }

    #[test]
    fn daredevil_beats_vanilla_under_pressure() {
        let vanilla = quick(StackSpec::vanilla(), 2, 8);
        let dare = quick(StackSpec::daredevil(), 2, 8);
        assert!(
            dare.l_p999_ms() < vanilla.l_p999_ms(),
            "daredevil p99.9 {} must beat vanilla {}",
            dare.l_p999_ms(),
            vanilla.l_p999_ms()
        );
    }

    #[test]
    fn throughput_is_sane() {
        let out = quick(StackSpec::vanilla(), 1, 4);
        // 4 T-tenants × QD32 × 128 KiB must move real data.
        assert!(out.t_mbps() > 50.0, "T throughput {}", out.t_mbps());
    }

    #[test]
    fn cpu_utilisation_reported() {
        let out = quick(StackSpec::vanilla(), 2, 6);
        let util = out.summary.avg_cpu_util();
        assert!(util > 0.0 && util <= 1.0, "util={util}");
    }

    #[test]
    fn warmup_discards_early_completions() {
        let mut s = Scenario::multi_tenant_fio(StackSpec::vanilla(), 1, 0, 1, MachinePreset::Small);
        s.knobs.warmup = SimDuration::from_millis(20);
        s.knobs.measure = SimDuration::from_millis(20);
        let out = crate::run(s);
        let l = out.summary.class("L");
        // Issued counts everything, completed only the window.
        let issued: u64 = out.summary.tenants.iter().map(|t| t.ios_issued).sum();
        assert!(issued > l.ios_completed);
    }

    #[test]
    fn series_buckets_cover_window() {
        let mut s = Scenario::multi_tenant_fio(StackSpec::vanilla(), 1, 1, 2, MachinePreset::Small);
        s.knobs.warmup = SimDuration::from_millis(2);
        s.knobs.measure = SimDuration::from_millis(50);
        s.knobs.seed = 7;
        s.sample_width = SimDuration::from_millis(10);
        let out = crate::run(s);
        let l = out.series.get("L").expect("L series exists");
        assert!(l.latency.buckets().len() >= 4, "expect several buckets");
    }

    #[test]
    fn migrate_storm_moves_tenants() {
        let mut s =
            Scenario::multi_tenant_fio(StackSpec::daredevil(), 2, 2, 2, MachinePreset::Small);
        s.knobs.warmup = SimDuration::from_millis(5);
        s.knobs.measure = SimDuration::from_millis(30);
        s.migrate_storm = Some(SimDuration::from_millis(1));
        let out = crate::run(s);
        assert!(out.summary.class("L").ios_completed > 0);
    }

    #[test]
    fn ionice_storm_triggers_reassignments() {
        let mut s =
            Scenario::multi_tenant_fio(StackSpec::daredevil(), 2, 2, 2, MachinePreset::Small);
        s.knobs.warmup = SimDuration::from_millis(5);
        s.knobs.measure = SimDuration::from_millis(30);
        s.ionice_storm = Some(SimDuration::from_millis(2));
        let out = crate::run(s);
        assert!(
            out.route_stats.reassignments > 5,
            "storm must force reassignments, got {}",
            out.route_stats.reassignments
        );
    }

    #[test]
    fn app_tenant_runs_ycsb() {
        use dd_workload::kvsim::KvConfig;
        let mut s = Scenario::new("ycsb-test", MachinePreset::Small, StackSpec::daredevil());
        s.tenants.push(crate::scenario::TenantSpec {
            class_label: "app",
            ionice: IoPriorityClass::RealTime,
            core: 0,
            nsid: NamespaceId(1),
            kind: TenantKind::App(AppKind::Ycsb {
                mix: dd_workload::YcsbMix::A,
                config: KvConfig {
                    keys: 10_000,
                    cache_blocks: 1_000,
                    memtable_entries: 50,
                    ..KvConfig::default()
                },
                ops: 500,
            }),
            slo: None,
        });
        s.knobs.warmup = SimDuration::from_millis(1);
        s.knobs.measure = SimDuration::from_secs(5);
        s.stop_when_apps_done = true;
        let out = crate::run(s);
        let reads = out.op_latencies.get(&OpKind::Read);
        let updates = out.op_latencies.get(&OpKind::Update);
        assert!(reads.is_some(), "read latencies recorded");
        assert!(updates.is_some(), "update latencies recorded");
        assert!(reads.unwrap().count() + updates.unwrap().count() > 200);
    }
}
