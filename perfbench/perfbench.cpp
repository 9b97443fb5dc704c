// Benchmark program for the psoodb simulator.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload through core::System's public API for --seconds of host
// time, as a sequence of identical *units* (one System per protocol of the
// workload, built, run and checked), and prints every metric by name and
// unit. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics with --trace 0 and the per-layer metrics
// with --trace 1. The lines before it print the same metrics in readable
// form; with --trace 0, one of them, "exact counts: {...}", also holds the
// per-layer exact counts as JSON, so that runs can be compared for them.
//
// Workloads (closed loop, zero think time, one process; see README.md in
// this directory for why each was chosen):
//   hicon_write     HICON low locality, write prob 0.20, 10 clients, all six
//                   protocols, sequential engine — cc and callback work.
//   uniform_read    UNIFORM low locality, write prob 0.05, same clients and
//                   protocols — storage and resource work, cc nearly idle.
//   scaled_sharded  scaled HOTCOLD high locality, write prob 0.20, 2000
//                   clients x 4 servers x 8 disks, 1 ms lookahead, PS-AA on
//                   the partitioned engine, timed on 1 worker thread — the
//                   only one running the window protocol and the
//                   cross-partition deadlock coordinator.
//
// Output checks (a unit that fails any of them counts in `failed`): no
// stall; the requested commits are committed; zero validity violations;
// every unit reproduces the first unit's events, commits and simulated
// throughput; one untimed unit with record_history is serializable with no
// lost updates (sequential workloads), or one untimed unit at 2 worker
// threads equals the 1-thread units (scaled_sharded); traced units have zero
// phase-breakdown violations.
//
// Per-layer host times are measured from outside the program by timing
// calls into each module's public functions on streams shaped like the
// workloads; nothing inside src/ is instrumented for this benchmark.

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <queue>
#include <set>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cc/abort.h"
#include "cc/copy_table.h"
#include "cc/deadlock_coordinator.h"
#include "cc/deadlock_detector.h"
#include "cc/lock_manager.h"
#include "config/params.h"
#include "core/system.h"
#include "metrics/histogram.h"
#include "resources/cpu.h"
#include "resources/disk.h"
#include "resources/network.h"
#include "sim/awaitables.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "storage/database.h"
#include "storage/lru_cache.h"
#include "trace/trace.h"
#include "workload/workload.h"

// --- Allocation counting ----------------------------------------------------
// Every operator new in the process goes through these replacements, so the
// count covers the library as well as this file. Relaxed atomics: the
// partitioned engine allocates from its worker threads too.

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  return std::aligned_alloc(a, rounded == 0 ? a : rounded);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = CountedAlignedAlloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = CountedAlignedAlloc(n, al)) return p;
  throw std::bad_alloc();
}
// These free what the replacements above took from malloc. Once GCC inlines
// them into a caller it sees free() applied to the result of operator new
// and warns of a mismatch (-Wmismatched-new-delete) that is not there.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace psoodb;

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Returns freed heap to the kernel and resets the process's peak resident
/// set to its current size, so that PeakRssMb covers only what runs after.
/// Returns false when the kernel refuses the reset.
bool ResetPeakRss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// Peak resident set (VmHWM) since the start or the last ResetPeakRss.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- Host speed probe ------------------------------------------------------
// The host's slow spells last from seconds to minutes and slow memory-bound
// code by up to 40% (NOISE.md). That is more than a median over one run's
// units can absorb. So every timed unit is bracketed by two runs of a fixed
// probe, and the unit's host times are scaled by
// kProbeRefMs / (mean of the two probe times). They are reported as seconds
// on a host where the probe takes kProbeRefMs. The probe is a small
// event loop with the simulator's memory behaviour: a binary heap of
// timestamps, a hash table of short vectors, and allocation churn. It uses
// only the standard library, so no change to the simulator can move it.

/// Reference probe time: about the median on a 4-vCPU Firecracker VM.
constexpr double kProbeRefMs = 90;

std::uint64_t SplitMix(std::uint64_t* x) {
  std::uint64_t z = (*x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

class ProbeLoop {
 public:
  ProbeLoop() {
    for (std::uint32_t i = 0; i < 4096; ++i) heap_.push({Uniform(), i});
  }
  void Step(int ops) {
    for (int k = 0; k < ops; ++k) {
      const auto [t, id] = heap_.top();
      heap_.pop();
      std::vector<int>& v = table_[Key()];
      v.push_back(static_cast<int>(id));
      if (v.size() > 4) table_.erase(Key());
      heap_.push({t - Uniform(), id});
    }
  }

 private:
  double Uniform() { return static_cast<double>(SplitMix(&rng_) >> 11) * 0x1p-53; }
  std::uint32_t Key() { return static_cast<std::uint32_t>(SplitMix(&rng_) % 200000); }

  std::uint64_t rng_ = 7;
  std::priority_queue<std::pair<double, std::uint32_t>> heap_;
  std::unordered_map<std::uint32_t, std::vector<int>> table_;
};

/// Host milliseconds for 150,000 steps of the event loop (about 90).
double ProbeMs() {
  const double t0 = WallNow();
  ProbeLoop loop;
  loop.Step(150000);
  return (WallNow() - t0) * 1e3;
}

// --- Workloads --------------------------------------------------------------

struct Workload {
  std::string name;
  config::SystemParams sys;
  config::WorkloadParams wl;
  std::vector<config::Protocol> protocols;
  core::RunConfig rc;
  /// sim_shards of the timed units: 0 = sequential engine, 1 = partitioned
  /// engine on one worker thread.
  int threads = 0;
};

bool MakeWorkload(const std::string& name, std::uint64_t seed, Workload* w) {
  w->name = name;
  w->sys.seed = seed;
  if (name == "hicon_write" || name == "uniform_read") {
    w->protocols = config::AllProtocolsExtended();
    w->rc.warmup_commits = 100;
    w->rc.measure_commits = 1000;
    w->wl = name == "hicon_write"
                ? config::MakeHicon(w->sys, config::Locality::kLow, 0.20)
                : config::MakeUniform(w->sys, config::Locality::kLow, 0.05);
    return true;
  }
  if (name == "scaled_sharded") {
    w->sys.num_clients = 2000;
    w->sys.num_servers = 4;
    w->sys.db_pages = 1250 * (2000 / 25);  // Table 1 ratio: 1250 pages per 25 clients
    w->sys.server_disks = 8;
    w->sys.cross_partition_latency = 1e-3;
    w->protocols = {config::Protocol::kPSAA};
    w->rc.warmup_commits = 200;
    w->rc.measure_commits = 4000;
    w->threads = 1;
    w->wl = config::MakeHotCold(w->sys, config::Locality::kHigh, 0.20);
    return true;
  }
  return false;
}

// --- Units ------------------------------------------------------------------

// Exact compares Counters bytewise, which needs a struct without padding.
static_assert(std::has_unique_object_representations_v<metrics::Counters>);

/// The deterministic outputs of one protocol run. Two runs of the same
/// workload and seed must agree on every field exactly.
struct Exact {
  std::uint64_t events = 0;
  std::uint64_t commits = 0;
  double sim_seconds = 0;
  double throughput = 0;
  metrics::Counters counters;
  std::uint64_t deadlocks = 0;
  double server_cpu_util = 0;
  double disk_util = 0;
  double network_util = 0;
  std::uint64_t windows = 0;
  std::uint64_t scans = 0;

  bool operator==(const Exact& o) const {
    return events == o.events && commits == o.commits &&
           sim_seconds == o.sim_seconds && throughput == o.throughput &&
           std::memcmp(&counters, &o.counters, sizeof counters) == 0 &&
           deadlocks == o.deadlocks && server_cpu_util == o.server_cpu_util &&
           disk_util == o.disk_util && network_util == o.network_util &&
           windows == o.windows && scans == o.scans;
  }
};

struct UnitOptions {
  int threads = 0;
  bool trace = false;
  bool telemetry = false;
  bool history = false;
};

struct Unit {
  double scale = 1;    ///< host speed factor from the probes around the unit
  double setup_s = 0;  ///< constructing the Systems
  double wall_s = 0;   ///< inside System::Run
  double cpu_s = 0;    ///< process CPU inside System::Run
  std::uint64_t allocs = 0;
  std::vector<Exact> runs;  ///< one per protocol
  // Partitioned-engine wall-clock accounting (zero on the sequential engine).
  double shard_busy_s = 0;
  double shard_serial_s = 0;
  double shard_merge_s = 0;
  // Trace decomposition (zero unless traced).
  double phase_seconds[trace::kNumPhases] = {};
  std::uint64_t breakdown_violations = 0;
  std::vector<std::string> failures;

  std::uint64_t events() const {
    std::uint64_t n = 0;
    for (const Exact& e : runs) n += e.events;
    return n;
  }
  std::uint64_t commits() const {
    std::uint64_t n = 0;
    for (const Exact& e : runs) n += e.commits;
    return n;
  }
  double sim_txn_per_s() const {
    double s = 0;
    for (const Exact& e : runs) s += e.sim_seconds;
    return Ratio(static_cast<double>(commits()), s);
  }
};

Unit RunUnit(const Workload& w, const UnitOptions& opt) {
  Unit u;
  for (config::Protocol p : w.protocols) {
    config::SystemParams sys = w.sys;
    sys.sim_shards = opt.threads;
    sys.trace = opt.trace;
    sys.telemetry = opt.telemetry;
    core::RunConfig rc = w.rc;
    rc.record_history = opt.history;

    const double s0 = WallNow();
    core::System system(p, sys, w.wl);
    const double s1 = WallNow();
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    const double c0 = CpuNow();
    const double t0 = WallNow();
    const core::RunResult r = system.Run(rc);
    const double t1 = WallNow();
    const double c1 = CpuNow();
    u.allocs += g_allocs.load(std::memory_order_relaxed) - a0;
    u.setup_s += s1 - s0;
    u.wall_s += t1 - t0;
    u.cpu_s += c1 - c0;

    Exact e;
    e.events = r.events;
    e.commits = r.measured_commits;
    e.sim_seconds = r.sim_seconds;
    e.throughput = r.throughput;
    e.counters = r.counters;
    e.deadlocks = r.deadlocks;
    e.server_cpu_util = r.server_cpu_util;
    e.disk_util = r.disk_util;
    e.network_util = r.network_util;
    e.windows = r.shard_windows;
    e.scans = r.shard_scans;
    u.runs.push_back(e);

    for (double b : r.shard_busy_seconds) u.shard_busy_s += b;
    u.shard_serial_s += r.shard_serial_seconds;
    u.shard_merge_s += r.shard_merge_seconds;
    for (int i = 0; i < trace::kNumPhases; ++i) {
      u.phase_seconds[i] += r.phase_seconds[static_cast<std::size_t>(i)];
    }
    u.breakdown_violations += r.breakdown_violations;

    const std::string tag = config::ProtocolName(p);
    const auto target = static_cast<std::uint64_t>(rc.measure_commits);
    if (r.stalled) u.failures.push_back(tag + ": stalled");
    if (r.measured_commits != target) {
      u.failures.push_back(tag + ": committed " +
                           std::to_string(r.measured_commits) + " of " +
                           std::to_string(target));
    }
    if (r.counters.validity_violations != 0) {
      u.failures.push_back(tag + ": validity violations");
    }
    if (opt.history && !(r.serializable && r.no_lost_updates)) {
      u.failures.push_back(tag + ": history not serializable or lost update");
    }
    if (opt.trace && r.breakdown_violations != 0) {
      u.failures.push_back(tag + ": phase breakdown violations");
    }
  }
  return u;
}

// --- Per-layer microbenchmarks ----------------------------------------------
// Each runs a fixed amount of work through one module's public functions and
// returns host nanoseconds per operation, timing only the calls into the
// module (inputs are generated before the clock starts). The caller reports
// the median of three repetitions.

double NsPer(double t0, std::uint64_t ops) {
  return Ratio((WallNow() - t0) * 1e9, static_cast<double>(ops));
}

/// Median of three repetitions, each scaled by a probe run just before it.
template <typename Fn>
double Median3(Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < 3; ++i) {
    const double scale = kProbeRefMs / ProbeMs();
    v.push_back(fn() * scale);
  }
  return Median(v);
}

sim::Task Hopper(sim::Simulation& sim, std::uint64_t seed, int hops) {
  sim::Rng rng(seed);
  for (int i = 0; i < hops; ++i) co_await sim.Delay(rng.Uniform(0.0, 1.0));
}

/// Simulation schedule/run: 256 processes hopping through random delays.
double SimEventNs() {
  const double t0 = WallNow();
  sim::Simulation sim;
  for (int p = 0; p < 256; ++p) {
    sim.Spawn(Hopper(sim, 1000 + static_cast<std::uint64_t>(p), 1000));
  }
  sim.Run();
  return NsPer(t0, sim.events_processed());
}

sim::Task Responder(sim::Simulation& sim, sim::Promise<int> reply, int v) {
  co_await sim.Delay(0.0001);
  reply.Set(v);
}

sim::Task PingClient(sim::Simulation& sim, int rounds, std::uint64_t* sum) {
  for (int i = 0; i < rounds; ++i) {
    sim::Promise<int> p(sim);
    sim::Future<int> f = p.GetFuture();
    sim.Spawn(Responder(sim, std::move(p), i & 0xff));
    *sum += static_cast<std::uint64_t>(co_await std::move(f));
  }
}

/// Promise/Future round trips, each answered by a spawned responder frame.
double SimRpcNs() {
  constexpr int kRounds = 100000;
  const double t0 = WallNow();
  sim::Simulation sim;
  std::uint64_t sum = 0;
  sim.Spawn(PingClient(sim, kRounds, &sum));
  sim.Run();
  return NsPer(t0, kRounds);
}

sim::Task Nest(sim::Simulation& sim, int depth) {
  if (depth > 0) {
    co_await Nest(sim, depth - 1);
  } else {
    co_await sim.Delay(0.0001);
  }
}

sim::Task NestRepeat(sim::Simulation& sim, int iters, int depth) {
  for (int i = 0; i < iters; ++i) co_await Nest(sim, depth);
}

/// Nested Task frames, co_awaited to completion in LIFO order.
double SimFrameNs() {
  constexpr int kIters = 5000, kDepth = 32;
  const double t0 = WallNow();
  sim::Simulation sim;
  sim.Spawn(NestRepeat(sim, kIters, kDepth));
  sim.Run();
  return NsPer(t0, static_cast<std::uint64_t>(kIters) * (kDepth + 1));
}

/// Reference strings of `n` HICON low-locality transactions, write prob 0.20,
/// from the 10 clients in turn, as the hicon_write clients generate them.
std::vector<workload::ReferenceString> HiconStream(std::uint64_t seed, int n) {
  config::SystemParams sys;
  sys.seed = seed;
  const config::WorkloadParams wl =
      config::MakeHicon(sys, config::Locality::kLow, 0.20);
  std::vector<workload::TransactionSource> sources;
  for (int c = 0; c < sys.num_clients; ++c) sources.emplace_back(wl, sys, c, seed);
  std::vector<workload::ReferenceString> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(sources[static_cast<std::size_t>(i % sys.num_clients)]
                      .NextTransaction());
  }
  return out;
}

sim::Task LockStream(cc::LockManager& lm, const storage::ObjectLayout& layout,
                     const std::vector<workload::ReferenceString>& txns,
                     std::uint64_t* ops) {
  storage::TxnId txn = 0;
  for (const workload::ReferenceString& refs : txns) {
    ++txn;
    const auto client = static_cast<storage::ClientId>(txn % 10);
    for (const workload::AccessOp& op : refs) {
      if (!op.is_write) continue;
      co_await lm.AcquireObjectX(op.oid, layout.PageOf(op.oid), txn, client);
      ++*ops;
    }
    *ops += static_cast<std::uint64_t>(lm.ReleaseAll(txn));
  }
}

/// LockManager: each transaction of the HICON stream takes an object X lock
/// for each write, then ReleaseAll, as the server does under every protocol
/// but PS (which takes page X locks through the same table code); reads take
/// no server lock. Transactions run one after another, so no acquire waits.
/// Returns nanoseconds per acquire or release.
double CcLockNs(const std::vector<workload::ReferenceString>& txns) {
  constexpr int kPasses = 10;
  const config::SystemParams sys;
  const storage::ObjectLayout layout(sys.db_pages, sys.objects_per_page);
  const double t0 = WallNow();
  std::uint64_t ops = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    sim::Simulation sim;
    cc::DeadlockDetector det;
    cc::LockManager lm(sim, det);
    sim.Spawn(LockStream(lm, layout, txns, &ops));
    sim.Run();
  }
  return NsPer(t0, ops);
}

/// DeadlockDetector: ten live transactions (one per client) block on one to
/// three others, are checked for a cycle and unblock again; a wait that
/// would close a cycle is refused, as in the protocols.
double CcWfgNs(std::uint64_t seed) {
  constexpr int kRounds = 200000;
  sim::Rng rng(seed, 17);
  struct Step {
    std::size_t slot;
    std::vector<storage::TxnId> holder_slots;
    bool clear, retire;
  };
  std::vector<Step> steps(kRounds);
  for (Step& s : steps) {
    s.slot = static_cast<std::size_t>(rng.UniformInt(0, 9));
    const int nh = static_cast<int>(rng.UniformInt(1, 3));
    for (int h = 0; h < nh; ++h) s.holder_slots.push_back(rng.UniformInt(0, 9));
    s.clear = rng.Bernoulli(0.5);
    s.retire = rng.Bernoulli(0.05);
  }
  std::vector<storage::TxnId> live = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  storage::TxnId next = 11;
  std::vector<storage::TxnId> holders;
  std::uint64_t ops = 0;
  const double t0 = WallNow();
  cc::DeadlockDetector det;
  for (const Step& s : steps) {
    const storage::TxnId waiter = live[s.slot];
    holders.clear();
    for (storage::TxnId h : s.holder_slots) holders.push_back(live[static_cast<std::size_t>(h)]);
    try {
      det.OnWait(waiter, holders);
    } catch (const cc::TxnAborted&) {
    }
    (void)det.HasCycleFrom(waiter);
    ops += 2;
    if (s.clear) {
      det.ClearWaits(waiter);
      ++ops;
    }
    if (s.retire) {  // the waiter finishes; a new transaction takes its slot
      det.RemoveTxn(waiter);
      live[s.slot] = next++;
      ++ops;
    }
  }
  return NsPer(t0, ops);
}

/// Page CopyTable traffic of the hicon_write clients: each page access asks
/// whether the client holds a copy, and if not who else does (the callback
/// fan-out) and registers one; a client cache holds 312 pages, so the
/// oldest copy is dropped once it is full.
double CcCopyTableNs(const std::vector<workload::ReferenceString>& txns) {
  const config::SystemParams sys;
  const storage::ObjectLayout layout(sys.db_pages, sys.objects_per_page);
  const std::size_t cache_pages = static_cast<std::size_t>(sys.client_buf_pages());
  std::vector<std::vector<storage::PageId>> cached(10);
  std::vector<std::size_t> head(10, 0);
  std::uint64_t ops = 0;
  const double t0 = WallNow();
  cc::PageCopyTable table;
  int t = 0;
  for (const workload::ReferenceString& refs : txns) {
    const int c = t++ % 10;
    auto& mine = cached[static_cast<std::size_t>(c)];
    std::size_t& first = head[static_cast<std::size_t>(c)];
    for (const workload::AccessOp& op : refs) {
      const storage::PageId page = layout.PageOf(op.oid);
      ++ops;
      if (table.Holds(page, c)) continue;
      (void)table.HoldersExcept(page, c);
      table.Register(page, c);
      mine.push_back(page);
      ops += 2;
      if (mine.size() - first > cache_pages) {
        table.Unregister(mine[first++], c);
        ++ops;
      }
    }
  }
  return NsPer(t0, ops);
}

/// DeadlockCoordinator: cross-partition waits-for churn folded in windows
/// (Apply per partition), each followed by an incremental Scan. Even
/// partitions publish edges only from newer to older transactions and odd
/// ones the reverse, so every partition's own graph stays acyclic (as its
/// detector guarantees) while the union can close cycles. Victims leave the
/// graph and are cleared, as System does once their abort is observed.
/// Returns nanoseconds per window (fold plus scan).
double CcCoordScanNs(std::uint64_t seed) {
  constexpr int kPartitions = 4, kWindows = 20000, kTxns = 64;
  sim::Rng rng(seed, 23);
  std::vector<std::multiset<std::pair<storage::TxnId, storage::TxnId>>> edges(
      kPartitions);
  std::vector<std::vector<cc::EdgeDelta>> deltas(kPartitions);
  std::vector<cc::DeadlockCoordinator::Victim> victims;
  double busy = 0;  // time inside the coordinator only
  cc::DeadlockCoordinator coord(kPartitions);
  for (int w = 0; w < kWindows; ++w) {
    for (int k = 0; k < 4; ++k) {
      const int p = static_cast<int>(rng.UniformInt(0, kPartitions - 1));
      auto& mine = edges[static_cast<std::size_t>(p)];
      auto& log = deltas[static_cast<std::size_t>(p)];
      if (!mine.empty() && rng.Bernoulli(0.5)) {
        auto it = mine.begin();
        std::advance(it, rng.UniformInt(0, static_cast<std::int64_t>(mine.size()) - 1));
        log.push_back({it->first, it->second, false});
        mine.erase(it);
      } else {
        storage::TxnId a = rng.UniformInt(1, kTxns);
        storage::TxnId b = rng.UniformInt(1, kTxns);
        if (a == b) continue;
        if ((p % 2 == 0) != (a > b)) std::swap(a, b);
        mine.insert({a, b});
        log.push_back({a, b, true});
      }
    }
    const double t0 = WallNow();
    for (int p = 0; p < kPartitions; ++p) {
      auto& log = deltas[static_cast<std::size_t>(p)];
      coord.Apply(p, log.data(), log.size());
    }
    victims.clear();
    coord.Scan(false, &victims);
    busy += WallNow() - t0;
    for (auto& log : deltas) log.clear();
    for (const auto& v : victims) {
      for (int p = 0; p < kPartitions; ++p) {
        auto& mine = edges[static_cast<std::size_t>(p)];
        auto& log = deltas[static_cast<std::size_t>(p)];
        for (auto it = mine.begin(); it != mine.end();) {
          if (it->first == v.txn || it->second == v.txn) {
            log.push_back({it->first, it->second, false});
            it = mine.erase(it);
          } else {
            ++it;
          }
        }
      }
      coord.ClearPending(v.txn);
    }
  }
  return busy * 1e9 / kWindows;
}

/// LruCache of a client cache's size (312 pages) with keys drawn uniformly
/// from `key_range` pages: 250 (the HICON hot set, which fits) or 1250 (the
/// whole database, 4x the cache, as on uniform_read). Get, Insert on a miss.
double StorageLruNs(std::uint64_t seed, int key_range) {
  constexpr int kOps = 1000000;
  const config::SystemParams sys;
  sim::Rng rng(seed, 29);
  std::vector<storage::PageId> keys(kOps);
  for (auto& k : keys) k = static_cast<storage::PageId>(rng.UniformInt(0, key_range - 1));
  const double t0 = WallNow();
  storage::LruCache<storage::PageId, int> cache(
      static_cast<std::size_t>(sys.client_buf_pages()));
  for (storage::PageId k : keys) {
    if (cache.Get(k) == nullptr) cache.Insert(k);
  }
  return NsPer(t0, kOps);
}

sim::Task DiskClient(resources::DiskArray& disks, int n) {
  for (int i = 0; i < n; ++i) co_await disks.Access();
}
sim::Task NetClient(resources::Network& net, int n) {
  for (int i = 0; i < n; ++i) co_await net.Transfer(i % 4 == 0 ? 4096 : 256);
}
sim::Task CpuClient(resources::Cpu& cpu, int n) {
  for (int i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      co_await cpu.System(20000);
    } else {
      co_await cpu.User(5000);
    }
  }
}

// 16 requesters queue on each resource, 10k requests each.
constexpr int kResourceClients = 16, kResourceRequests = 10000;

/// A two-disk DiskArray (Table 1): FIFO queueing and service-time draws.
double ResourcesDiskNs(std::uint64_t seed) {
  const double t0 = WallNow();
  sim::Simulation sim;
  resources::DiskArray disks(sim, 2, 0.010, 0.030, seed);
  for (int c = 0; c < kResourceClients; ++c) {
    sim.Spawn(DiskClient(disks, kResourceRequests));
  }
  sim.Run();
  return NsPer(t0, disks.TotalRequests());
}

/// The 80 Mbit/s Network: control messages with one page transfer in four.
double ResourcesNetNs() {
  const double t0 = WallNow();
  sim::Simulation sim;
  resources::Network net(sim, 80.0);
  for (int c = 0; c < kResourceClients; ++c) {
    sim.Spawn(NetClient(net, kResourceRequests));
  }
  sim.Run();
  return NsPer(t0, net.messages());
}

/// A 30 MIPS Cpu: FIFO system requests mixed with processor-shared user
/// requests.
double ResourcesCpuNs() {
  const double t0 = WallNow();
  sim::Simulation sim;
  resources::Cpu cpu(sim, 30.0);
  for (int c = 0; c < kResourceClients; ++c) {
    sim.Spawn(CpuClient(cpu, kResourceRequests));
  }
  sim.Run();
  return NsPer(t0, cpu.system_requests() + cpu.user_requests());
}

/// TransactionSource::NextTransaction on the workload's own access pattern.
double WorkloadTxnNs(const Workload& w) {
  constexpr int kTxns = 20000;
  const double t0 = WallNow();
  workload::TransactionSource src(w.wl, w.sys, 0, w.sys.seed);
  for (int i = 0; i < kTxns; ++i) (void)src.NextTransaction();
  return NsPer(t0, kTxns);
}

/// Histogram::Add of exponentially distributed response times.
double MetricsHistNs(std::uint64_t seed) {
  constexpr int kOps = 2000000;
  sim::Rng rng(seed, 31);
  std::vector<double> xs(kOps);
  for (double& x : xs) x = rng.Exponential(0.5);
  const double t0 = WallNow();
  metrics::Histogram h;
  for (double x : xs) h.Add(x);
  return NsPer(t0, h.count());
}

// --- Output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintMetrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-36s %18.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

/// Prints `ms` as one JSON object of {"value", "unit"} objects, with every
/// digit of each value.
void PrintMetricsJson(const std::vector<Metric>& ms) {
  std::printf("{");
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                ms[i].unit.c_str());
  }
  std::printf("}");
}

void PrintJson(bool correct, std::size_t attempted, std::size_t failed,
               const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": ",
              correct ? "true" : "false", attempted, failed);
  PrintMetricsJson(ms);
  std::printf("}\n");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;  ///< the recorded default workload seed
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a->seconds > 0)) return false;
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a->trace = v[0] == '1';
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Workload w;
  if (!ParseArgs(argc, argv, &args) ||
      !MakeWorkload(args.workload, args.seed, &w)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload hicon_write|uniform_read|"
                 "scaled_sharded [--seed N] [--seconds S] [--trace 0|1]\n");
    return 2;
  }
  // The environment overrides of SystemParams would change what is measured.
  for (const char* var : {"PSOODB_TRACE", "PSOODB_TRACE_PAGE", "PSOODB_TELEMETRY",
                          "PSOODB_TELEMETRY_TICK", "PSOODB_SIM_SHARDS",
                          "PSOODB_INVARIANTS"}) {
    unsetenv(var);
  }

  // Untimed check unit, which also warms the allocator and the frame pools:
  // serializability on the sequential engine; on the partitioned one, two
  // worker threads, which must reproduce the one-thread timed units exactly.
  // Two threads are not timed: on a shared host their barrier waits depend
  // on when the hypervisor runs each vCPU, and 2-thread wall time swung by
  // 70% between runs (NOISE.md).
  UnitOptions check;
  check.threads = w.threads == 0 ? 0 : 2;
  check.history = w.threads == 0;
  Unit check_unit = RunUnit(w, check);
  // peak_rss_mb then covers the timed units only, not the check unit's
  // history or its second thread's arena.
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "could not reset the peak RSS; peak_rss_mb includes the check unit\n");
  }

  // Timed units.
  UnitOptions timed;
  timed.threads = w.threads;
  // Units run back to back until the next one would end past --seconds (at
  // least three, for a median), each followed by a probe and scaled by the
  // two probes around it.
  std::vector<Unit> units;
  const double start = WallNow();
  double probe = ProbeMs();
  for (double last = 0;;) {
    const double t0 = WallNow();
    Unit u = RunUnit(w, timed);
    const double next_probe = ProbeMs();
    u.scale = kProbeRefMs / (0.5 * (probe + next_probe));
    probe = next_probe;
    last = WallNow() - t0;
    std::fprintf(stderr, "unit %zu: wall %.4f s cpu %.4f s setup %.5f s scale %.4f allocs %llu\n",
                 units.size(), u.wall_s, u.cpu_s, u.setup_s, u.scale,
                 static_cast<unsigned long long>(u.allocs));
    units.push_back(std::move(u));
    if (units.size() >= 3 && WallNow() - start + last > args.seconds) break;
  }
  const double peak_rss_mb = PeakRssMb();

  // Determinism: every unit reproduces the first one exactly, including the
  // check unit (history recording and the worker-thread count are both
  // invisible to the simulation).
  const Unit& u0 = units.front();
  if (check_unit.runs != u0.runs) {
    check_unit.failures.push_back("differs from the timed units");
  }
  for (std::size_t i = 1; i < units.size(); ++i) {
    if (units[i].runs != u0.runs) {
      units[i].failures.push_back("differs from the first timed unit");
    }
  }
  // On one thread, allocation counts repeat exactly once the frame pools are
  // warm, so a change is a failure. The first timed unit may still fill
  // them: on the partitioned engine the check unit ran on other threads.
  const Unit& warm = units[1];
  for (std::size_t i = 2; i < units.size(); ++i) {
    if (units[i].allocs != warm.allocs) {
      units[i].failures.push_back("allocation count differs from the second timed unit");
    }
  }

  std::vector<std::string> failures;
  std::size_t attempted = 0, failed = 0;
  auto account = [&](const Unit& u, const std::string& what) {
    ++attempted;
    if (u.failures.empty()) return;
    ++failed;
    for (const std::string& f : u.failures) failures.push_back(what + ": " + f);
  };
  account(check_unit, w.threads == 0 ? "history unit" : "2-thread unit");
  for (std::size_t i = 0; i < units.size(); ++i) {
    account(units[i], "timed unit " + std::to_string(i));
  }

  auto med = [&](auto get) {
    std::vector<double> v;
    for (const Unit& u : units) v.push_back(get(u));
    return Median(v);
  };
  const double events = static_cast<double>(u0.events());
  const double commits = static_cast<double>(u0.commits());

  // Host times are scaled to the probes' reference speed.
  std::vector<Metric> end_to_end = {
      {"wall_s", med([](const Unit& u) { return u.wall_s * u.scale; }), "s"},
      {"cpu_s", med([](const Unit& u) { return u.cpu_s * u.scale; }), "s"},
      {"events_per_s", med([&](const Unit& u) { return Ratio(events, u.wall_s * u.scale); }), "1/s"},
      {"setup_s", med([](const Unit& u) { return u.setup_s * u.scale; }), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"sim_txn_per_s", u0.sim_txn_per_s(), "txn/s"},
  };

  // Exact counts from the first timed unit (every unit agrees, checked
  // above). They are per-layer metrics; with --trace 0 they are printed on a
  // line of their own, so that runs can be compared for them at no cost.
  metrics::Counters c;
  double cpu_util = 0, disk_util = 0, net_util = 0;
  double windows = 0, scans = 0, deadlocks = 0;
  for (const Exact& e : u0.runs) {
    c.Add(e.counters);
    cpu_util += e.server_cpu_util;
    disk_util += e.disk_util;
    net_util += e.network_util;
    windows += static_cast<double>(e.windows);
    scans += static_cast<double>(e.scans);
    deadlocks += static_cast<double>(e.deadlocks);
  }
  const double nruns = static_cast<double>(u0.runs.size());
  auto per_commit = [&](std::uint64_t x) { return Ratio(static_cast<double>(x), commits); };
  const std::vector<Metric> exact = {
      {"sim.shard.events_per_window", Ratio(events, windows), "1/window"},
      {"sim.shard.windows", windows, "count"},
      {"cc.coord.scans", scans, "count"},
      {"sim.events_per_commit", Ratio(events, commits), "1/commit"},
      {"core.msgs_per_commit", per_commit(c.msgs_total), "1/commit"},
      {"core.callbacks_per_commit", per_commit(c.callbacks_sent), "1/commit"},
      {"cc.lock_waits_per_commit", per_commit(c.lock_waits), "1/commit"},
      {"cc.deadlocks_per_commit", Ratio(deadlocks, commits), "1/commit"},
      {"storage.hit_ratio",
       Ratio(static_cast<double>(c.cache_hits), static_cast<double>(c.cache_hits + c.cache_misses)),
       "share"},
      {"storage.disk_reads_per_commit", per_commit(c.disk_reads), "1/commit"},
      {"resources.server_cpu_util", cpu_util / nruns, "share"},
      {"resources.disk_util", disk_util / nruns, "share"},
      {"resources.network_util", net_util / nruns, "share"},
      {"alloc.per_event", Ratio(static_cast<double>(warm.allocs), events), "1/event"},
  };

  std::vector<Metric> per_layer;
  if (args.trace) {
    // Traced and telemetered units, each timed against an untraced unit run
    // just before it (the host's slow spells last seconds, so adjacent units
    // compare best). Both are observers only: the simulation must not change
    // under them.
    UnitOptions traced = timed;
    traced.trace = true;
    UnitOptions telem = timed;
    telem.telemetry = true;
    std::vector<double> trace_ratio, telem_ratio;
    auto check_same = [&](Unit u, const char* what) {
      if (u.runs != u0.runs) u.failures.push_back("differs from the timed units");
      account(u, what);
    };
    Unit traced_unit;
    for (int i = 0; i < 2; ++i) {
      const Unit base = RunUnit(w, timed);
      traced_unit = RunUnit(w, traced);
      const Unit t = RunUnit(w, telem);
      trace_ratio.push_back(Ratio(traced_unit.wall_s, base.wall_s));
      telem_ratio.push_back(Ratio(t.wall_s, base.wall_s));
      check_same(base, "untraced unit");
      check_same(traced_unit, "traced unit");
      check_same(t, "telemetry unit");
    }

    const double threads = w.threads > 0 ? w.threads : 1;
    double phase_total = 0;
    for (double s : traced_unit.phase_seconds) phase_total += s;

    const auto txns = HiconStream(args.seed, 3000);
    const std::uint64_t seed = args.seed;
    per_layer = {
        {"sim.event_ns", Median3(SimEventNs), "ns"},
        {"sim.rpc_ns", Median3(SimRpcNs), "ns"},
        {"sim.frame_ns", Median3(SimFrameNs), "ns"},
        {"cc.lock_ns", Median3([&] { return CcLockNs(txns); }), "ns"},
        {"cc.wfg_ns", Median3([&] { return CcWfgNs(seed); }), "ns"},
        {"cc.copy_table_ns", Median3([&] { return CcCopyTableNs(txns); }), "ns"},
        {"cc.coord_scan_ns", Median3([&] { return CcCoordScanNs(seed); }), "ns"},
        {"storage.lru_hit_ns", Median3([&] { return StorageLruNs(seed, 250); }), "ns"},
        {"storage.lru_miss_ns", Median3([&] { return StorageLruNs(seed, 1250); }), "ns"},
        {"resources.disk_ns", Median3([&] { return ResourcesDiskNs(seed); }), "ns"},
        {"resources.net_ns", Median3(ResourcesNetNs), "ns"},
        {"resources.cpu_ns", Median3(ResourcesCpuNs), "ns"},
        {"workload.txn_ns", Median3([&] { return WorkloadTxnNs(w); }), "ns"},
        {"metrics.hist_ns", Median3([&] { return MetricsHistNs(seed); }), "ns"},
        // (wall - sum(busy)/threads - serial) / windows: the per-window cost
        // that is neither partition work nor the serial phase (barriers).
        {"sim.shard.window_ns",
         med([&](const Unit& u) {
           const double rest = u.wall_s - u.shard_busy_s / threads - u.shard_serial_s;
           return Ratio(rest * u.scale * 1e9, windows);
         }),
         "ns"},
        {"sim.shard.busy_share",
         med([&](const Unit& u) { return Ratio(u.shard_busy_s, u.wall_s * threads); }), "share"},
        {"sim.shard.serial_s", med([](const Unit& u) { return u.shard_serial_s * u.scale; }), "s"},
        {"sim.shard.merge_s", med([](const Unit& u) { return u.shard_merge_s * u.scale; }), "s"},
    };
    per_layer.insert(per_layer.end(), exact.begin(), exact.end());
    for (int i = 0; i < trace::kNumPhases; ++i) {
      per_layer.push_back({std::string("trace.phase.") + trace::PhaseName(i) + "_share",
                           Ratio(traced_unit.phase_seconds[i], phase_total), "share"});
    }
    per_layer.push_back({"trace.breakdown_violations",
                         static_cast<double>(traced_unit.breakdown_violations), "count"});
    per_layer.push_back({"trace.overhead_ratio", Median(trace_ratio), "ratio"});
    per_layer.push_back({"metrics.telemetry_overhead_ratio", Median(telem_ratio), "ratio"});
  }

  // Share of units passing every output check; the failure count itself is
  // the result's `failed` field.
  end_to_end.push_back(
      {"pass_share", Ratio(static_cast<double>(attempted - failed), static_cast<double>(attempted)),
       "share"});

  for (const std::string& f : failures) std::fprintf(stderr, "FAILED %s\n", f.c_str());
  std::printf("workload %s, seed %llu: %zu timed units of %zu protocol run(s), "
              "%.0f events and %.0f commits per unit\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed), units.size(),
              w.protocols.size(), events, commits);
  std::printf("host probe: median %.1f ms (reference %.0f); unscaled medians: "
              "wall_s %.6g, cpu_s %.6g, setup_s %.6g\n",
              med([](const Unit& u) { return kProbeRefMs / u.scale; }), kProbeRefMs,
              med([](const Unit& u) { return u.wall_s; }), med([](const Unit& u) { return u.cpu_s; }),
              med([](const Unit& u) { return u.setup_s; }));
  PrintMetrics("end-to-end:", end_to_end);
  if (args.trace) {
    PrintMetrics("per-layer:", per_layer);
  } else {
    std::printf("exact counts: ");
    PrintMetricsJson(exact);
    std::printf("\n");
  }
  std::printf("output checks: %s (%zu of %zu units failed)\n",
              failed == 0 ? "pass" : "FAIL", failed, attempted);
  PrintJson(failed == 0, attempted, failed, args.trace ? per_layer : end_to_end);
  return 0;
}
