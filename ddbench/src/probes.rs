//! Host-side instruments: clocks, peak RSS, the counting allocator, and the
//! isolated per-layer timers that call one public function directly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use blkstack::blkmq::VanillaBlkMq;
use blkstack::stack::{StackEnv, StorageStack};
use blkstack::{Pid, TaskStruct};
use blkswitch::BlkSwitchStack;
use daredevil::DaredevilStack;
use dd_cpu::HostCosts;
use dd_nvme::{DeviceOutput, NvmeDevice};
use dd_overprov::OverprovStack;
use dd_workload::mailserver::{MailConfig, MailserverWorkload};
use dd_workload::{AppWorkload, YcsbMix, YcsbWorkload};
use simkit::{SimRng, SimTime};
use testbed::{Scenario, StackSpec};

/// Global allocator that counts allocator calls while [`count_allocs`] is
/// on. Off, it costs one relaxed load per call, so the untraced
/// end-to-end run does not pay for the counter.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note_alloc() {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every call forwards unchanged to the system allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Runs `f` with allocation counting on; returns its result and the number
/// of allocations (`alloc`, `alloc_zeroed` and `realloc` calls) it made.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Relaxed);
    COUNTING.store(true, Relaxed);
    let r = f();
    COUNTING.store(false, Relaxed);
    (r, ALLOCS.load(Relaxed) - before)
}

/// Wall-clock seconds spent in `f`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Smallest of `xs` (the fastest of repeated host timings).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The four stacks whose per-stack layer metrics the benchmark reports.
pub fn all_stacks() -> [StackSpec; 4] {
    [
        StackSpec::vanilla(),
        StackSpec::blk_switch(),
        StackSpec::overprov(),
        StackSpec::daredevil(),
    ]
}

/// Builds `spec`'s stack for `device` the way the testbed machine does.
fn build_stack(spec: &StackSpec, nr_cores: u16, device: &NvmeDevice) -> Box<dyn StorageStack> {
    match spec {
        StackSpec::Vanilla(cfg) => Box::new(VanillaBlkMq::new(*cfg, nr_cores, device.nr_sqs())),
        StackSpec::BlkSwitch(cfg) => Box::new(BlkSwitchStack::new(*cfg, nr_cores, device.nr_sqs())),
        StackSpec::Overprov => Box::new(OverprovStack::new(nr_cores, device.nr_sqs())),
        StackSpec::Daredevil(cfg) => Box::new(DaredevilStack::for_device(*cfg, nr_cores, device)),
        StackSpec::Virtio { .. } => unreachable!("the benchmark runs no virtio cell"),
    }
}

/// Host nanoseconds per `StorageStack::register_tenant` call on a freshly
/// built device and `stack`, registering `scenario`'s own tenants in pid
/// order (as the machine's bootstrap does). Fastest of repeats that
/// together register at least 50,000 tenants.
pub fn register_ns_per_tenant(stack: &StackSpec, scenario: &Scenario) -> f64 {
    let nr_cores = scenario.nr_cores();
    let mut nvme = scenario.nvme.clone();
    if matches!(stack, StackSpec::Overprov) {
        // The machine enables WRR arbitration for this stack.
        nvme = nvme.with_wrr(dd_nvme::WrrWeights::default());
    }
    let tasks: Vec<TaskStruct> = scenario
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| TaskStruct::new(Pid(i as u64 + 1), t.core, t.ionice, t.nsid, t.class_label))
        .collect();
    let repeats = (50_000 / tasks.len()).clamp(5, 2_000);
    let costs = HostCosts::default();
    let mut samples = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let mut device = NvmeDevice::new(nvme.clone(), nr_cores);
        let mut stack = build_stack(stack, nr_cores, &device);
        let mut dev_out = DeviceOutput::new();
        let mut completions = Vec::new();
        let mut migrations = Vec::new();
        let mut rng = SimRng::new(scenario.knobs.seed);
        let mut env = StackEnv {
            now: SimTime::ZERO,
            device: &mut device,
            dev_out: &mut dev_out,
            completions: &mut completions,
            migrations: &mut migrations,
            rng: &mut rng,
            costs: &costs,
        };
        let ((), secs) = timed(|| {
            for task in &tasks {
                stack.register_tenant(task, &mut env);
            }
        });
        samples.push(secs * 1e9 / tasks.len() as f64);
        black_box(&stack);
    }
    min(&samples)
}

/// Host nanoseconds per `AppWorkload::next_op` of `workload`, seeded with
/// `seed`: fastest of 5 passes of 20,000 ops each.
fn ns_per_op(mut make: impl FnMut() -> Box<dyn AppWorkload>, seed: u64) -> f64 {
    const OPS: usize = 20_000;
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let mut workload = make();
        let mut rng = SimRng::new(seed);
        let ((), secs) = timed(|| {
            for _ in 0..OPS {
                black_box(workload.next_op(&mut rng));
            }
        });
        samples.push(secs * 1e9 / OPS as f64);
    }
    min(&samples)
}

/// `next_op` host cost of `app_mix`'s YCSB-A client.
pub fn ycsb_ns_per_op(seed: u64) -> f64 {
    let kv = crate::workloads::app_mix_kv();
    ns_per_op(
        || Box::new(YcsbWorkload::new(YcsbMix::A, kv, u64::MAX)),
        seed,
    )
}

/// `next_op` host cost of `app_mix`'s mailserver.
pub fn mail_ns_per_op(seed: u64) -> f64 {
    ns_per_op(
        || Box::new(MailserverWorkload::new(MailConfig::default(), u64::MAX)),
        seed,
    )
}
