// Streaming executor: persistent pipeline stages over bounded SPSC
// queues. See stream.hpp for the contract.
//
// Topology. Each scheduled placement (primary and duplicate copies
// alike) becomes a persistent *stage*; the placements on one processor,
// in deterministic schedule order, form a *lane*. Worker threads own
// lanes round-robin and drive them with a cooperative, non-blocking
// state machine (gather -> execute -> push -> complete), so fewer
// threads than processors still make progress and can never deadlock on
// their own queues.
//
// Faults. Before sources are chosen, the lane of a processor with a
// registered crash is split at its first placement scheduled at or
// after the crash. The tail becomes a *rescue* lane run by the
// lowest-numbered processor whose lane was not split. Its placements
// keep their scheduled starts and processors, so source selection and
// the argument below are unchanged; a same-lane read across the split
// becomes a queue read.
//
// Value flow. For every producer-bound input of a stage, one source
// copy of the producer is chosen with the schedule validator's own
// arrival criterion (copy.finish + comm_time <= consumer.start): a
// same-lane earlier copy becomes a direct local read, any other becomes
// a dedicated bounded SPSC queue. Because sources respect the in-batch
// schedule order, the pipeline is deadlock-free for any queue capacity
// >= 1: order blocked stages by (batch, schedule time) — the least one
// waits on a producer that is already runnable, or on a queue slot its
// consumer is guaranteed to free, by induction on that order. A stage
// gathers its inputs in source order, which keeps that argument: the
// input it waits on comes from an earlier stage. The last reader of a
// value (a same-lane read, or an out-queue when nothing else reads it)
// moves it instead of copying it.
//
// Sizing. A queue carries one packet per batch and at most `window`
// batches are in flight, so a ring never holds more than `window`
// packets: each is sized to min(capacity, window).
//
// Invariant. Every stage delivers exactly one packet per out-queue per
// batch and always reaches completion — on success, on task error
// (packets carry ok=false), and on skip (an upstream stage of the batch
// failed). Queues therefore never misalign across batches and
// downstream stages always unblock.
//
// Bookkeeping. A batch's state lives in a slot that later batches
// reuse. A stage writes its run, transcript and kept outputs into its
// own entries of the slot without a lock; the count of stages still to
// complete is atomic, and the stage that takes it to zero assembles the
// outcome. A stage takes the mutex only to record a failure or to hand
// its batch over. The earliest-scheduled failure wins, and of a
// duplicated task's copies the earliest-scheduled one that succeeds
// keeps its outputs: every other copy must match them.
//
// Wake-ups. The caller blocked in push() or pop() waits on its own
// condition, notified only when a batch finishes or the stream fails.
// Each worker has an event counter, bumped by what can give its lanes
// work: a packet pushed into a queue one of its lanes reads, a slot
// freed in a queue one of its lanes may be stalled on (possible only
// when the ring is smaller than the window), an admitted batch, close
// and fatal. A worker snapshots its counter before scanning its lanes
// and parks, under the mutex, only if the scan made no progress and the
// counter is unchanged; a waker takes the mutex and notifies it only
// when it is parked. No lost wake-ups, no polling, and a worker that
// runs every lane wakes no one.
//
// One batch. Executor::run is run_batch(): it admits its batch and
// closes the stream before any worker starts, drives worker 0's lanes
// on the calling thread, runs a window of one batch (so every ring
// holds the one packet that crosses it), and builds no report.
#include "exec/stream.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <tuple>
#include <utility>

#include "exec/plan.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace banger::exec {

namespace {

using Clock = std::chrono::steady_clock;
using pits::Value;

// Matches sched::Schedule::validate, so any schedule that validates
// wires up without arrival errors.
constexpr double kArrivalTolerance = 1e-9;
// A crash at time c kills the first placement starting at c or later.
constexpr double kCrashTolerance = 1e-12;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One value crossing a queue. ok=false marks an absent value (its
/// producer failed or skipped); consumers of an absent value skip.
struct Packet {
  Value value;
  bool ok = false;
};

/// Bounded single-producer single-consumer ring. Each queue links
/// exactly one producer stage to one consumer stage, and each lane is
/// driven by exactly one thread, so both ends are single-threaded by
/// construction. The stats fields are split by owner: the producer
/// thread writes pushes/occupancy/full_stalls, the consumer thread
/// writes empty_stalls; they are read only after the workers join.
class SpscQueue {
 public:
  explicit SpscQueue(std::size_t capacity) : ring_(capacity ? capacity : 1) {}

  /// Producer: the packet the next push() publishes, or null when the
  /// ring is full. Only the producer fills a ring, so the slot stays
  /// free until it pushes.
  Packet* next_slot() {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (tail - head >= ring_.size()) return nullptr;
    return &ring_[tail % ring_.size()];
  }

  /// Producer: publishes the packet next_slot() returned.
  void push() {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    tail_.store(tail + 1, std::memory_order_release);
    ++pushes;
    const std::uint64_t occ = tail + 1 - head;  // producer's (lagging) view
    occupancy_sum += static_cast<double>(occ);
    if (occ > max_occupancy) max_occupancy = occ;
  }

  bool try_pop(Packet& out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) return false;
    out = std::move(ring_[head % ring_.size()]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }

  // Producer-side stats.
  std::uint64_t pushes = 0;
  std::uint64_t max_occupancy = 0;
  double occupancy_sum = 0.0;
  std::uint64_t full_stalls = 0;
  // Consumer-side stat.
  std::uint64_t empty_stalls = 0;

 private:
  std::vector<Packet> ring_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> tail_{0};
};

/// The two ends of one queue.
struct QueueEnds {
  TaskId producer = graph::kNoTask;
  ProcId producer_proc = -1;
  std::size_t producer_lane = 0;
  TaskId consumer = graph::kNoTask;
  ProcId consumer_proc = -1;
  std::size_t consumer_lane = 0;
  std::uint32_t var = 0;  ///< index into the consumer's inputs
};

/// No worker to wake: the other end runs on the same thread.
constexpr std::size_t kNoWake = static_cast<std::size_t>(-1);

/// Where one producer-bound input of a stage comes from. Kind::None
/// marks bindings the shared plan resolves without a producer
/// (external stores / nothing) — those are handled at bind time.
struct StageSource {
  enum class Kind : std::uint8_t { None, Local, Queue };
  Kind kind = Kind::None;
  /// Kind::Local: the lane's last read of the value, which moves it.
  bool take = false;
  int queue = -1;        ///< Kind::Queue: index into Pipeline::queues
  int local_stage = -1;  ///< Kind::Local: producer position in this lane
  std::uint32_t producer_out = 0;
  /// Kind::Queue: the producer's worker, woken by a pop when it may be
  /// stalled on the full ring.
  std::size_t wake = kNoWake;
};

struct StagePush {
  int queue = -1;
  std::uint32_t producer_out = 0;
  /// The value's last reader: nothing after this push reads it.
  bool take = false;
  std::size_t wake = kNoWake;  ///< the consumer's worker
};

struct Stage {
  sched::Placement pl;
  std::size_t order = 0;  ///< canonical (start, proc, duplicate) rank
  bool primary = false;
  bool local_needed = false;  ///< some later same-lane stage reads me
  int kept = -1;  ///< index into BatchSlot::kept; store writers, duplicates
  std::vector<StageSource> sources;   // parallel to the plan's inputs
  std::vector<bool> keep_after_bind;  // value re-read by a pass-through
  std::vector<StagePush> pushes;
  // Stats, owned by the lane's worker thread.
  std::uint64_t processed = 0;
  std::uint64_t skipped = 0;
  double busy_seconds = 0.0;
};

struct BatchSlot;

/// A lane and its cooperative state machine. Everything below `stages`
/// is owned by the single worker thread driving the lane.
struct Lane {
  ProcId proc = -1;      ///< runs the lane: for a rescue lane, the survivor
  bool rescue = false;   ///< the tail of a crashed processor's lane
  std::vector<Stage> stages;

  std::uint64_t batch = 0;     ///< global index of the batch being worked
  BatchSlot* slot = nullptr;   ///< `batch`'s state while the lane is in it
  std::size_t stage_idx = 0;
  /// Per stage position, the outputs a later same-lane stage reads;
  /// empty when that stage failed or skipped in this batch.
  std::vector<std::optional<TaskOutputs>> local;
  // Current-stage scratch, preserved across no-progress attempts:
  // sources [0, gather_pos) are gathered, pushes [0, push_pos) sent.
  std::vector<Packet> gathered;
  std::size_t gather_pos = 0;
  std::size_t push_pos = 0;
  bool stall_counted = false;  ///< the current gather or push stall
  bool executed = false;
  bool exec_ok = false;
  TaskOutputs outputs;
  std::string transcript;
};

/// One copy of a task whose outputs a batch keeps (a store writer, or
/// a task with duplicate copies), in stage order.
struct KeptCopy {
  TaskId task = graph::kNoTask;
  std::size_t order = 0;
  ProcId proc = -1;  ///< the processor that runs it
};

/// The working state of one batch in flight. Reused by later batches:
/// every vector keeps its size, and is cleared entry by entry.
struct BatchSlot {
  std::shared_ptr<const ExternalInputs> inputs;
  Clock::time_point started;  ///< admission
  /// Stages still to complete; the one that takes it to zero finishes
  /// the batch.
  std::atomic<std::size_t> remaining{0};
  // Each entry is written by its own stage; read once `remaining` is 0.
  std::vector<std::string> transcripts;        // by stage order
  std::vector<TaskRun> runs;                   // by stage order
  std::vector<std::optional<TaskOutputs>> kept;  // by KeptCopy index
  /// By task: the kept outputs collect_stores reads.
  std::vector<std::optional<TaskOutputs>> task_outputs;
  // The earliest-scheduled failure, written under Pipeline::mu.
  bool has_error = false;
  ErrorCode error_code = ErrorCode::Runtime;
  std::string error;
  SourcePos error_pos;
  std::size_t error_order = 0;  ///< stage order of the kept failure
  ProcId error_proc = -1;       ///< the processor that ran it
};

/// Where one worker parks.
struct Parking {
  std::condition_variable cv;
  /// Bumped by every event that can give this worker's lanes work.
  std::atomic<std::uint64_t> signals{0};
  /// Waiting on `cv`; written only under Pipeline::mu.
  std::atomic<bool> parked{false};
};

}  // namespace

struct Pipeline {
  const FlattenResult& flat;
  const Machine& machine;
  StreamOptions opt;
  DesignPlan plan;
  std::vector<Lane> lanes;
  std::vector<std::unique_ptr<SpscQueue>> queues;
  std::vector<QueueEnds> queue_ends;
  std::vector<KeptCopy> kept_copies;
  std::size_t stage_count = 0;
  int workers_died = 0;  ///< lanes split by the fault plan
  std::size_t threads_n = 1;
  std::size_t window_cap = 4;
  std::vector<Parking> parking;  ///< one per worker
  obs::TraceRecorder* rec = nullptr;
  Clock::time_point t0;
  // resolve_binding scratch for External/Nothing kinds (never touched).
  std::vector<std::optional<TaskOutputs>> no_outs;

  mutable std::mutex mu;  // guards what follows, down to `fatal_msg`
  std::condition_variable caller_cv;  ///< push()/pop() wait for a batch
  std::uint64_t pushed = 0;
  std::uint64_t completed = 0;
  std::uint64_t delivered = 0;
  /// Batches `completed` to `pushed - 1`, and slots for later ones.
  std::deque<std::unique_ptr<BatchSlot>> inflight;
  std::vector<std::unique_ptr<BatchSlot>> free_slots;
  std::deque<TrialOutcome> ready;  ///< finished, not yet delivered
  bool closing = false;
  bool fatal = false;
  std::string fatal_msg;
  bool finished = false;
  StreamReport report;
  std::vector<std::jthread> workers;  // last: joined before the rest dies

  Pipeline(const FlattenResult& f, const Schedule& schedule, const Machine& m,
           StreamOptions options);

  void wire(const Schedule& schedule);
  void start_workers();
  // mu held, or no worker started yet.
  void admit(std::shared_ptr<const ExternalInputs> inputs);
  /// mu held: worker `w` may have new work in its lanes.
  void wake_locked(std::size_t w) {
    Parking& p = parking[w];
    p.signals.fetch_add(1);
    if (p.parked.load()) p.cv.notify_one();
  }
  /// Worker `w` may have new work in its lanes. The worker sets
  /// `parked` before it last reads `signals`, and we bump `signals`
  /// before we read `parked` (all sequentially consistent), so either it
  /// sees the bump or we see it parked. Only then do we take mu, which
  /// it holds until it waits.
  void wake(std::size_t w) {
    Parking& p = parking[w];
    p.signals.fetch_add(1);
    if (p.parked.load()) {
      std::lock_guard lock(mu);
      p.cv.notify_one();
    }
  }
  /// mu held: every worker has new work (a batch, close, fatal).
  void wake_all_locked() {
    for (std::size_t w = 0; w < parking.size(); ++w) wake_locked(w);
  }
  /// A failure no batch can carry: every worker leaves, and the next
  /// push, pop or finish raises `message`.
  void stop(std::string message) {
    std::lock_guard lock(mu);
    fatal = true;
    fatal_msg = std::move(message);
    wake_all_locked();
    caller_cv.notify_all();
  }
  /// mu held, or every stage of the batch has completed.
  static void keep_error(BatchSlot& bs, std::size_t order, ProcId proc,
                         ErrorCode code, std::string message, SourcePos pos) {
    if (bs.has_error && bs.error_order < order) return;
    bs.has_error = true;
    bs.error_code = code;
    bs.error = std::move(message);
    bs.error_pos = pos;
    bs.error_order = order;
    bs.error_proc = proc;
  }
  bool try_advance(Lane& ln, TaskScratch& scratch);
  bool gather(Lane& ln, Stage& st);
  void execute_stage(Lane& ln, Stage& st, TaskScratch& scratch);
  void complete_stage(Lane& ln, Stage& st);
  /// Every stage of the batch has completed: its outcome.
  TrialOutcome assemble(BatchSlot& bs);
  /// mu held: hands the outcome over and frees the slot.
  void publish_locked(BatchSlot& bs, TrialOutcome out);
  void worker_main(std::size_t worker_idx);
  StreamReport build_report();
};

Pipeline::Pipeline(const FlattenResult& f, const Schedule& schedule,
                   const Machine& m, StreamOptions options)
    : flat(f), machine(m), opt(std::move(options)) {
  if (schedule.num_procs() != machine.num_procs()) {
    fail(ErrorCode::Schedule, "schedule/machine processor count mismatch");
  }
  if (opt.run.faults != nullptr && !opt.run.faults->empty()) {
    opt.run.faults->validate(machine.num_procs());
  }
  plan = build_plan(flat);
  wire(schedule);

  const std::size_t usable_lanes = std::max<std::size_t>(lanes.size(), 1);
  threads_n = std::min<std::size_t>(
      static_cast<std::size_t>(util::resolve_jobs(opt.jobs)), usable_lanes);
  window_cap = opt.window != 0 ? opt.window
                               : std::max<std::size_t>(2 * threads_n, 4);
  parking = std::vector<Parking>(threads_n);
  // At most window_cap packets can sit in a queue (one per batch in
  // flight); a smaller ring can fill, and its pops wake the producer.
  const std::size_t ring =
      std::max<std::size_t>(std::min(opt.queue_capacity, window_cap), 1);
  const bool pop_wakes = ring < window_cap;
  queues.reserve(queue_ends.size());
  for (std::size_t q = 0; q < queue_ends.size(); ++q) {
    queues.push_back(std::make_unique<SpscQueue>(ring));
  }
  auto worker_of = [&](std::size_t lane) { return lane % threads_n; };
  for (std::size_t li = 0; li < lanes.size(); ++li) {
    for (Stage& st : lanes[li].stages) {
      for (StagePush& sp : st.pushes) {
        const std::size_t w =
            worker_of(queue_ends[static_cast<std::size_t>(sp.queue)]
                          .consumer_lane);
        if (w != worker_of(li)) sp.wake = w;
      }
      for (StageSource& src : st.sources) {
        if (src.kind != StageSource::Kind::Queue || !pop_wakes) continue;
        const std::size_t w =
            worker_of(queue_ends[static_cast<std::size_t>(src.queue)]
                          .producer_lane);
        if (w != worker_of(li)) src.wake = w;
      }
    }
  }
  rec = obs::current();
  t0 = Clock::now();
}

void Pipeline::start_workers() {
  if (lanes.empty()) return;
  workers.reserve(threads_n);
  try {
    for (std::size_t w = 0; w < threads_n; ++w) {
      workers.emplace_back([this, w] { worker_main(w); });
    }
  } catch (...) {
    stop("could not start a stream worker");  // the started ones leave
    throw;
  }
}

void Pipeline::admit(std::shared_ptr<const ExternalInputs> inputs) {
  if (free_slots.empty()) {
    auto slot = std::make_unique<BatchSlot>();
    slot->transcripts.resize(stage_count);
    slot->runs.resize(stage_count);
    slot->kept.resize(kept_copies.size());
    slot->task_outputs.resize(flat.graph.num_tasks());
    free_slots.push_back(std::move(slot));
  }
  inflight.push_back(std::move(free_slots.back()));
  free_slots.pop_back();
  BatchSlot& bs = *inflight.back();
  bs.inputs = std::move(inputs);
  bs.remaining = stage_count;
  bs.started = Clock::now();
  ++pushed;
  wake_all_locked();
  // Degenerate pipeline (no stages): the batch is already complete.
  if (stage_count == 0) publish_locked(bs, assemble(bs));
}

void Pipeline::wire(const Schedule& schedule) {
  const graph::TaskGraph& g = flat.graph;
  const std::vector<std::vector<sched::Placement>> all = schedule.lanes();
  {
    std::vector<int> seen(g.num_tasks(), 0);
    for (const auto& lane : all)
      for (const sched::Placement& pl : lane)
        if (!pl.duplicate) ++seen[pl.task];
    for (TaskId t = 0; t < g.num_tasks(); ++t) {
      if (seen[t] != 1) {
        fail(ErrorCode::Schedule, "task `" + g.task(t).name +
                                      "` has no unique primary placement");
      }
    }
  }
  // Fail-stop: a crashed processor's lane ends at its first placement
  // scheduled at or after the crash (`cut`); the rest is rescued.
  const fault::FaultPlan* faults = opt.run.faults;
  std::vector<std::size_t> cut(all.size());
  ProcId survivor = -1;
  for (std::size_t p = 0; p < all.size(); ++p) {
    const auto& lane = all[p];
    cut[p] = lane.size();
    if (faults != nullptr) {
      if (const auto crash = faults->crash_time(static_cast<ProcId>(p))) {
        cut[p] = static_cast<std::size_t>(
            std::find_if(lane.begin(), lane.end(),
                         [&](const sched::Placement& pl) {
                           return pl.start >= *crash - kCrashTolerance;
                         }) -
            lane.begin());
      }
    }
    if (cut[p] < lane.size()) {
      ++workers_died;
    } else if (!lane.empty() && survivor < 0) {
      survivor = static_cast<ProcId>(p);
    }
  }
  if (workers_died > 0 && survivor < 0) {
    std::vector<bool> kept(g.num_tasks(), false);
    for (std::size_t p = 0; p < all.size(); ++p) {
      for (std::size_t i = 0; i < cut[p]; ++i) kept[all[p][i].task] = true;
    }
    fail(ErrorCode::Runtime,
         "all capable workers crashed: " +
             std::to_string(std::count(kept.begin(), kept.end(), false)) +
             " tasks never executed");
  }
  auto add_lane = [&](ProcId proc, bool rescue, const auto& lane,
                      std::size_t from, std::size_t to) {
    if (from == to) return;
    Lane& ln = lanes.emplace_back();
    ln.proc = proc;
    ln.rescue = rescue;
    ln.stages.reserve(to - from);
    for (std::size_t i = from; i < to; ++i) {
      Stage& st = ln.stages.emplace_back();
      st.pl = lane[i];
      st.primary = !lane[i].duplicate;
    }
  };
  for (std::size_t p = 0; p < all.size(); ++p) {
    add_lane(static_cast<ProcId>(p), false, all[p], 0, cut[p]);
  }
  for (std::size_t p = 0; p < all.size(); ++p) {
    add_lane(survivor, true, all[p], cut[p], all[p].size());
  }
  // A batch keeps the outputs of every store writer and duplicated task.
  std::vector<bool> keeps_outputs(g.num_tasks(), false);
  for (const auto& writers : plan.store_writers) {
    for (const StoreWriter& w : writers) keeps_outputs[w.task] = true;
  }
  for (const sched::Placement& pl : schedule.placements()) {
    if (pl.duplicate) keeps_outputs[pl.task] = true;
  }
  // Canonical stage order (error canonicalisation, transcript/run
  // assembly), the kept copies in that order, and the copy lookup used
  // by source selection.
  std::vector<std::vector<std::pair<int, int>>> stages_of(g.num_tasks());
  {
    struct Key {
      double start;
      ProcId proc;
      bool dup;
      int lane;
      int pos;
    };
    std::vector<Key> keys;
    for (std::size_t li = 0; li < lanes.size(); ++li) {
      for (std::size_t si = 0; si < lanes[li].stages.size(); ++si) {
        const Stage& st = lanes[li].stages[si];
        keys.push_back({st.pl.start, st.pl.proc, st.pl.duplicate,
                        static_cast<int>(li), static_cast<int>(si)});
        stages_of[st.pl.task].push_back(
            {static_cast<int>(li), static_cast<int>(si)});
        ++stage_count;
      }
    }
    std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
      return std::tie(a.start, a.proc, a.dup, a.lane, a.pos) <
             std::tie(b.start, b.proc, b.dup, b.lane, b.pos);
    });
    for (std::size_t i = 0; i < keys.size(); ++i) {
      Lane& ln = lanes[static_cast<std::size_t>(keys[i].lane)];
      Stage& st = ln.stages[static_cast<std::size_t>(keys[i].pos)];
      st.order = i;
      if (keeps_outputs[st.pl.task]) {
        st.kept = static_cast<int>(kept_copies.size());
        kept_copies.push_back({st.pl.task, i, ln.proc});
      }
    }
  }
  // Source selection per stage per producer-bound input. The chosen copy
  // must satisfy the validator's arrival criterion against *this* stage,
  // which is what makes the pipeline deadlock-free.
  for (std::size_t li = 0; li < lanes.size(); ++li) {
    Lane& ln = lanes[li];
    for (std::size_t si = 0; si < ln.stages.size(); ++si) {
      Stage& st = ln.stages[si];
      const graph::Task& task = g.task(st.pl.task);
      const TaskPlan& tp = plan.tasks[st.pl.task];
      st.sources.assign(tp.inputs.size(), StageSource{});
      st.keep_after_bind.assign(tp.inputs.size(), false);
      for (const OutputPlan& op : tp.outputs) {
        if (op.pass_input >= 0) {
          st.keep_after_bind[static_cast<std::size_t>(op.pass_input)] = true;
        }
      }
      for (std::size_t bi = 0; bi < tp.inputs.size(); ++bi) {
        const InputBinding& b = tp.inputs[bi];
        if (b.kind != InputBinding::Kind::Producer) continue;
        double bytes = 0.0;
        for (graph::EdgeId e : g.in_edges(st.pl.task)) {
          if (g.edge(e).from == b.producer) {
            bytes = g.edge(e).bytes;
            break;
          }
        }
        // Prefer a same-lane earlier copy: a direct local read, no
        // queue, no copy across threads.
        int best_pos = -1;
        for (const auto& [plg, pos] : stages_of[b.producer]) {
          if (static_cast<std::size_t>(plg) != li) continue;
          if (static_cast<std::size_t>(pos) >= si) continue;
          const sched::Placement& pp =
              lanes[static_cast<std::size_t>(plg)]
                  .stages[static_cast<std::size_t>(pos)]
                  .pl;
          if (pp.finish > st.pl.start + kArrivalTolerance) continue;
          if (best_pos < 0 ||
              pp.finish < ln.stages[static_cast<std::size_t>(best_pos)]
                              .pl.finish) {
            best_pos = pos;
          }
        }
        StageSource src;
        src.producer_out = b.producer_out;
        if (best_pos >= 0) {
          src.kind = StageSource::Kind::Local;
          src.local_stage = best_pos;
          ln.stages[static_cast<std::size_t>(best_pos)].local_needed = true;
        } else {
          // Any copy whose data arrives in time under the comm model.
          int q_lane = -1;
          int q_pos = -1;
          for (const auto& [plg, pos] : stages_of[b.producer]) {
            // Same-lane later copies cannot feed us (lane order).
            if (static_cast<std::size_t>(plg) == li) continue;
            const sched::Placement& pp =
                lanes[static_cast<std::size_t>(plg)]
                    .stages[static_cast<std::size_t>(pos)]
                    .pl;
            if (pp.finish + machine.comm_time(bytes, pp.proc, st.pl.proc) >
                st.pl.start + kArrivalTolerance) {
              continue;
            }
            if (q_lane < 0) {
              q_lane = plg;
              q_pos = pos;
              continue;
            }
            const sched::Placement& cur =
                lanes[static_cast<std::size_t>(q_lane)]
                    .stages[static_cast<std::size_t>(q_pos)]
                    .pl;
            if (std::tie(pp.finish, pp.proc, pp.duplicate) <
                std::tie(cur.finish, cur.proc, cur.duplicate)) {
              q_lane = plg;
              q_pos = pos;
            }
          }
          if (q_lane < 0) {
            fail(ErrorCode::Schedule,
                 "no scheduled copy of task `" + g.task(b.producer).name +
                     "` delivers `" + task.inputs[b.var] + "` to task `" +
                     task.name + "` by its start time");
          }
          src.kind = StageSource::Kind::Queue;
          src.queue = static_cast<int>(queue_ends.size());
          Stage& prod = lanes[static_cast<std::size_t>(q_lane)]
                            .stages[static_cast<std::size_t>(q_pos)];
          prod.pushes.push_back({src.queue, b.producer_out});
          queue_ends.push_back({b.producer, prod.pl.proc,
                                static_cast<std::size_t>(q_lane), st.pl.task,
                                st.pl.proc, li, b.var});
        }
        st.sources[bi] = src;
      }
    }
  }
  // Who reads each value last. A lane runs its stages in order, so its
  // last same-lane read of an output may move it; an out-queue may move
  // a value that no later push, kept copy or same-lane read needs.
  for (Lane& ln : lanes) {
    // A lane's outputs, numbered stage by stage from first_out[stage].
    std::vector<std::size_t> first_out(ln.stages.size() + 1, 0);
    for (std::size_t si = 0; si < ln.stages.size(); ++si) {
      first_out[si + 1] =
          first_out[si] + g.task(ln.stages[si].pl.task).outputs.size();
    }
    std::vector<bool> read_locally(first_out.back(), false);
    for (std::size_t si = ln.stages.size(); si-- > 0;) {
      Stage& st = ln.stages[si];
      for (auto src = st.sources.rbegin(); src != st.sources.rend(); ++src) {
        if (src->kind != StageSource::Kind::Local) continue;
        const std::size_t value =
            first_out[static_cast<std::size_t>(src->local_stage)] +
            src->producer_out;
        src->take = !read_locally[value];
        read_locally[value] = true;
      }
      // Every same-lane reader of this stage comes later: counted above.
      if (st.kept >= 0) continue;
      for (std::size_t pi = 0; pi < st.pushes.size(); ++pi) {
        const std::uint32_t out = st.pushes[pi].producer_out;
        const bool later_push = std::any_of(
            st.pushes.begin() + static_cast<std::ptrdiff_t>(pi) + 1,
            st.pushes.end(),
            [&](const StagePush& sp) { return sp.producer_out == out; });
        st.pushes[pi].take =
            !later_push && !read_locally[first_out[si] + out];
      }
    }
  }
  for (Lane& ln : lanes) {
    std::size_t widest = 0;
    for (const Stage& st : ln.stages) {
      widest = std::max(widest, st.sources.size());
    }
    ln.gathered.resize(widest);
    ln.local.resize(ln.stages.size());
  }
}

bool Pipeline::gather(Lane& ln, Stage& st) {
  bool progress = false;
  for (; ln.gather_pos < st.sources.size(); ++ln.gather_pos) {
    const StageSource& src = st.sources[ln.gather_pos];
    Packet& p = ln.gathered[ln.gather_pos];
    switch (src.kind) {
      case StageSource::Kind::None:
        p.ok = true;  // resolved at bind time
        break;
      case StageSource::Kind::Local: {
        auto& lo = ln.local[static_cast<std::size_t>(src.local_stage)];
        p.ok = lo.has_value();
        if (p.ok) {
          Value& v = (*lo)[src.producer_out];
          p.value = src.take ? std::move(v) : v;
        }
        break;
      }
      case StageSource::Kind::Queue: {
        SpscQueue& q = *queues[static_cast<std::size_t>(src.queue)];
        if (!q.try_pop(p)) {
          if (!ln.stall_counted) {
            ++q.empty_stalls;
            ln.stall_counted = true;
          }
          return progress;
        }
        ln.stall_counted = false;
        if (src.wake != kNoWake) wake(src.wake);
        progress = true;
        break;
      }
    }
  }
  return progress;
}

void Pipeline::execute_stage(Lane& ln, Stage& st, TaskScratch& scratch) {
  const graph::TaskGraph& g = flat.graph;
  const graph::Task& task = g.task(st.pl.task);
  const TaskPlan& tp = plan.tasks[st.pl.task];
  const ExternalInputs& inputs = *ln.slot->inputs;

  ln.outputs.clear();
  ln.transcript.clear();
  ln.executed = true;
  ln.exec_ok = false;
  for (std::size_t i = 0; i < st.sources.size(); ++i) {
    if (!ln.gathered[i].ok) {
      // An upstream stage of this batch failed; propagate absence. The
      // batch already carries (or will carry) the canonical error.
      ++st.skipped;
      return;
    }
  }
  TaskRun& run = ln.slot->runs[st.order];
  run.task = st.pl.task;
  run.proc = ln.proc;
  run.duplicate = st.pl.duplicate;
  run.rescued = ln.rescue;
  const Clock::time_point started = ln.slot->started;
  const auto begin = Clock::now();
  run.wall_start = std::chrono::duration<double>(begin - started).count();
  try {
    if (tp.chunk != nullptr) scratch.frame.prepare(*tp.chunk);
    for (std::size_t i = 0; i < tp.inputs.size(); ++i) {
      const InputBinding& b = tp.inputs[i];
      Value v;
      if (st.sources[i].kind == StageSource::Kind::None) {
        // External store or nothing: the shared resolver raises the
        // exact historical diagnostics.
        v = resolve_binding(task, b, inputs, no_outs);
      } else {
        Value& got = ln.gathered[i].value;
        v = st.keep_after_bind[i] ? got : std::move(got);
      }
      if (b.slot >= 0) {
        scratch.frame.bind(static_cast<std::uint32_t>(b.slot), std::move(v));
      }
    }
    ln.outputs = execute_task_with(
        flat, plan, st.pl.task, scratch, opt.run,
        [&](const InputBinding& b) -> Value {
          if (st.sources[b.var].kind == StageSource::Kind::None) {
            return resolve_binding(task, b, inputs, no_outs);
          }
          return ln.gathered[b.var].value;  // kept by keep_after_bind
        },
        st.primary ? &ln.transcript : nullptr);
    ln.exec_ok = true;
    ++st.processed;
  } catch (const Error& e) {
    std::lock_guard lock(mu);
    keep_error(*ln.slot, st.order, ln.proc, e.code(), e.message(), e.pos());
  }
  const auto end = Clock::now();
  run.wall_finish = std::chrono::duration<double>(end - started).count();
  st.busy_seconds += std::chrono::duration<double>(end - begin).count();
}

void Pipeline::complete_stage(Lane& ln, Stage& st) {
  BatchSlot& bs = *ln.slot;
  if (ln.exec_ok) {
    if (st.kept >= 0) {
      auto& kept = bs.kept[static_cast<std::size_t>(st.kept)];
      if (st.local_needed) {
        kept = ln.outputs;  // a later same-lane stage reads them too
      } else {
        kept = std::move(ln.outputs);
      }
    }
    if (st.primary) bs.transcripts[st.order].swap(ln.transcript);
  }
  if (st.local_needed) {
    auto& local = ln.local[ln.stage_idx];
    if (ln.exec_ok) {
      local = std::move(ln.outputs);
    } else {
      local.reset();
    }
  }
  if (bs.remaining.fetch_sub(1) != 1) return;
  TrialOutcome out = assemble(bs);
  {
    std::lock_guard lock(mu);
    publish_locked(bs, std::move(out));
  }
  caller_cv.notify_one();
}

TrialOutcome Pipeline::assemble(BatchSlot& bs) {
  // The earliest-scheduled copy that succeeded keeps a task's outputs;
  // a duplicate that disagrees with it fails the batch.
  for (std::size_t k = 0; k < kept_copies.size(); ++k) {
    std::optional<TaskOutputs>& outs = bs.kept[k];
    if (!outs.has_value()) continue;
    const KeptCopy& copy = kept_copies[k];
    std::optional<TaskOutputs>& first = bs.task_outputs[copy.task];
    if (!first.has_value()) {
      first = std::move(outs);
    } else if (!(*first == *outs)) {
      // PITS is deterministic, so duplicate copies must agree.
      keep_error(bs, copy.order, copy.proc, ErrorCode::Runtime,
                 "duplicate copies of task `" +
                     flat.graph.task(copy.task).name +
                     "` produced different outputs",
                 {});
    }
    outs.reset();
  }
  TrialOutcome out;
  if (bs.has_error) {
    out.ok = false;
    out.error_code = bs.error_code;
    out.error = "worker " + std::to_string(bs.error_proc) + ": " + bs.error;
    out.error_pos = bs.error_pos;
  } else {
    out.ok = true;
    RunResult& r = out.result;
    for (const std::string& text : bs.transcripts) r.transcript += text;
    r.runs = bs.runs;
    r.workers_died = workers_died;
    for (const TaskRun& run : r.runs) {
      if (!run.rescued) continue;
      ++r.tasks_rescued;
      r.recovery_overhead_seconds += run.wall_finish - run.wall_start;
    }
    collect_stores(flat, plan, bs.task_outputs, *bs.inputs, r);
    r.wall_seconds = seconds_since(bs.started);
  }
  // Leave the slot clean for its next batch.
  for (std::string& text : bs.transcripts) text.clear();
  for (const KeptCopy& copy : kept_copies) bs.task_outputs[copy.task].reset();
  bs.has_error = false;
  bs.inputs.reset();
  return out;
}

void Pipeline::publish_locked(BatchSlot& bs, TrialOutcome out) {
  // Batches complete in admission order: a lane runs every stage of one
  // batch before any of the next.
  BANGER_ASSERT(!inflight.empty() && inflight.front().get() == &bs,
                "stream batches completed out of order");
  free_slots.push_back(std::move(inflight.front()));
  inflight.pop_front();
  ready.push_back(std::move(out));
  ++completed;
}

bool Pipeline::try_advance(Lane& ln, TaskScratch& scratch) {
  if (ln.stages.empty()) return false;
  bool progress = false;
  for (;;) {
    if (ln.slot == nullptr) {
      std::lock_guard lock(mu);
      if (ln.batch >= pushed) return progress;  // nothing admitted yet
      ln.slot =
          inflight[static_cast<std::size_t>(ln.batch - completed)].get();
      ln.stage_idx = 0;
      progress = true;
    }
    Stage& st = ln.stages[ln.stage_idx];
    if (!ln.executed) {
      if (gather(ln, st)) progress = true;
      if (ln.gather_pos < st.sources.size()) return progress;
      execute_stage(ln, st, scratch);
      progress = true;
    }
    for (; ln.push_pos < st.pushes.size(); ++ln.push_pos) {
      const StagePush& sp = st.pushes[ln.push_pos];
      SpscQueue& q = *queues[static_cast<std::size_t>(sp.queue)];
      Packet* p = q.next_slot();
      if (p == nullptr) {
        if (!ln.stall_counted) {
          ++q.full_stalls;
          ln.stall_counted = true;
        }
        return progress;
      }
      ln.stall_counted = false;
      p->ok = ln.exec_ok;
      if (ln.exec_ok) {
        Value& v = ln.outputs[sp.producer_out];
        p->value = sp.take ? std::move(v) : v;
      }
      q.push();
      if (sp.wake != kNoWake) wake(sp.wake);
      progress = true;
    }
    complete_stage(ln, st);
    progress = true;
    ln.executed = false;
    ln.gather_pos = 0;
    ln.push_pos = 0;
    ++ln.stage_idx;
    if (ln.stage_idx == ln.stages.size()) {
      ++ln.batch;
      ln.slot = nullptr;
      // Loop: try to open the next batch immediately.
    }
  }
}

void Pipeline::worker_main(std::size_t worker_idx) {
  // Adopt the launching thread's ambient recorder so PITS VM
  // counters bumped inside task routines aggregate as usual.
  std::optional<obs::ScopedRecorder> ambient;
  if (rec != nullptr) ambient.emplace(*rec);
  TaskScratch scratch;
  std::vector<std::size_t> owned;
  for (std::size_t li = worker_idx; li < lanes.size(); li += threads_n) {
    owned.push_back(li);
  }
  Parking& park = parking[worker_idx];
  try {
    for (;;) {
      // Snapshot BEFORE scanning: an event after it keeps us awake.
      const std::uint64_t seen = park.signals.load();
      bool progress = false;
      for (std::size_t li : owned) {
        progress = try_advance(lanes[li], scratch) || progress;
      }
      if (progress) continue;
      std::unique_lock lock(mu);
      if (fatal) return;
      if (closing) {
        bool idle = true;
        for (std::size_t li : owned) {
          if (lanes[li].slot != nullptr || lanes[li].batch < pushed) {
            idle = false;
            break;
          }
        }
        if (idle) return;
      }
      park.parked.store(true);
      park.cv.wait(lock, [&] { return park.signals.load() != seen || fatal; });
      park.parked.store(false);
    }
  } catch (const std::exception& e) {
    stop(std::string("internal error in stream worker: ") + e.what());
  } catch (...) {
    stop("internal error in stream worker");
  }
}

StreamReport Pipeline::build_report() {
  StreamReport rep;
  rep.batches = completed;
  rep.wall_seconds = seconds_since(t0);
  rep.threads = lanes.empty() ? 0 : threads_n;
  // Blocks in canonical stage order.
  std::vector<const Stage*> ordered(stage_count, nullptr);
  for (const Lane& ln : lanes) {
    for (const Stage& st : ln.stages) ordered[st.order] = &st;
  }
  for (const Stage* st : ordered) {
    if (st == nullptr) continue;
    BlockStats b;
    b.name = flat.graph.task(st->pl.task).name + "@" +
             std::to_string(st->pl.proc);
    if (st->pl.duplicate) b.name += "+dup";
    b.task = st->pl.task;
    b.proc = st->pl.proc;
    b.duplicate = st->pl.duplicate;
    b.processed = st->processed;
    b.skipped = st->skipped;
    b.busy_seconds = st->busy_seconds;
    b.dead_seconds = std::max(0.0, rep.wall_seconds - st->busy_seconds);
    rep.blocks.push_back(std::move(b));
  }
  for (std::size_t q = 0; q < queues.size(); ++q) {
    const SpscQueue& sq = *queues[q];
    const QueueEnds& ends = queue_ends[q];
    const graph::Task& consumer = flat.graph.task(ends.consumer);
    QueueStats s;
    s.name = flat.graph.task(ends.producer).name + "@" +
             std::to_string(ends.producer_proc) + "->" + consumer.name + "@" +
             std::to_string(ends.consumer_proc) + ":" +
             consumer.inputs[ends.var];
    s.capacity = sq.capacity();
    s.pushes = sq.pushes;
    s.max_occupancy = sq.max_occupancy;
    s.avg_occupancy =
        sq.pushes > 0 ? sq.occupancy_sum / static_cast<double>(sq.pushes)
                      : 0.0;
    s.full_stalls = sq.full_stalls;
    s.empty_stalls = sq.empty_stalls;
    rep.queues.push_back(std::move(s));
  }
  return rep;
}

// ---- StreamReport ----------------------------------------------------

std::string StreamReport::render() const {
  std::string out = "streaming execution report: " +
                    std::to_string(batches) + " batch" +
                    (batches == 1 ? "" : "es") + ", " +
                    std::to_string(threads) + " thread" +
                    (threads == 1 ? "" : "s") + ", " +
                    util::format_double(wall_seconds, 4) + "s wall, " +
                    util::format_double(batches_per_second(), 6) +
                    " batches/s\n";
  if (!blocks.empty()) {
    util::Table table;
    table.set_header({"block", "proc", "processed", "skipped", "busy s",
                      "dead s", "dead %"});
    for (const BlockStats& b : blocks) {
      const double dead_pct =
          wall_seconds > 0.0 ? 100.0 * b.dead_seconds / wall_seconds : 0.0;
      table.add_row({b.name, std::to_string(b.proc),
                     std::to_string(b.processed), std::to_string(b.skipped),
                     util::format_double(b.busy_seconds, 4),
                     util::format_double(b.dead_seconds, 4),
                     util::format_double(dead_pct, 4)});
    }
    out += table.to_string(2);
  }
  if (!queues.empty()) {
    util::Table table;
    table.set_header({"queue", "cap", "pushes", "max occ", "avg occ",
                      "full stalls", "empty stalls"});
    for (const QueueStats& q : queues) {
      table.add_row({q.name, std::to_string(q.capacity),
                     std::to_string(q.pushes),
                     std::to_string(q.max_occupancy),
                     util::format_double(q.avg_occupancy, 4),
                     std::to_string(q.full_stalls),
                     std::to_string(q.empty_stalls)});
    }
    out += table.to_string(2);
  }
  return out;
}

void StreamReport::record(obs::TraceRecorder& rec) const {
  rec.bump("exec.stream_batches", static_cast<double>(batches));
  rec.set_metric("stream.batches", static_cast<double>(batches));
  rec.set_metric("stream.wall_seconds", wall_seconds);
  rec.set_metric("stream.batches_per_second", batches_per_second());
  rec.set_metric("stream.threads", static_cast<double>(threads));
  for (const BlockStats& b : blocks) {
    const std::string prefix = "stream.block." + b.name;
    rec.set_metric(prefix + ".processed", static_cast<double>(b.processed));
    rec.set_metric(prefix + ".skipped", static_cast<double>(b.skipped));
    rec.set_metric(prefix + ".busy_seconds", b.busy_seconds);
    rec.set_metric(prefix + ".dead_seconds", b.dead_seconds);
    rec.set_metric(prefix + ".throughput",
                   wall_seconds > 0.0
                       ? static_cast<double>(b.processed) / wall_seconds
                       : 0.0);
  }
  for (const QueueStats& q : queues) {
    const std::string prefix = "stream.queue." + q.name;
    rec.set_metric(prefix + ".pushes", static_cast<double>(q.pushes));
    rec.set_metric(prefix + ".max_occupancy",
                   static_cast<double>(q.max_occupancy));
    rec.set_metric(prefix + ".avg_occupancy", q.avg_occupancy);
    rec.set_metric(prefix + ".full_stalls",
                   static_cast<double>(q.full_stalls));
    rec.set_metric(prefix + ".empty_stalls",
                   static_cast<double>(q.empty_stalls));
  }
}

// ---- StreamExecutor --------------------------------------------------

StreamExecutor::StreamExecutor(const FlattenResult& flat,
                               const Schedule& schedule,
                               const Machine& machine, StreamOptions options)
    : impl_(std::make_unique<Pipeline>(flat, schedule, machine,
                                       std::move(options))) {
  impl_->start_workers();
}

StreamExecutor::~StreamExecutor() {
  if (impl_ != nullptr && !impl_->finished) {
    {
      std::lock_guard lock(impl_->mu);
      impl_->closing = true;
      impl_->wake_all_locked();
    }
    impl_->workers.clear();  // join
  }
}

void StreamExecutor::push(std::map<std::string, pits::Value> inputs) {
  Pipeline& im = *impl_;
  std::unique_lock lock(im.mu);
  if (im.closing) fail(ErrorCode::Runtime, "push on a finished stream");
  im.caller_cv.wait(lock, [&] {
    return im.fatal || im.pushed - im.completed < im.window_cap;
  });
  if (im.fatal) fail(ErrorCode::Runtime, im.fatal_msg);
  im.admit(std::make_shared<const ExternalInputs>(std::move(inputs)));
}

std::optional<TrialOutcome> StreamExecutor::try_pop() {
  Pipeline& im = *impl_;
  std::lock_guard lock(im.mu);
  if (im.fatal) fail(ErrorCode::Runtime, im.fatal_msg);
  if (im.ready.empty()) return std::nullopt;
  TrialOutcome out = std::move(im.ready.front());
  im.ready.pop_front();
  ++im.delivered;
  return out;
}

TrialOutcome StreamExecutor::pop() {
  Pipeline& im = *impl_;
  std::unique_lock lock(im.mu);
  if (im.pushed == im.delivered) {
    fail(ErrorCode::Runtime, "pop with no outstanding batch");
  }
  im.caller_cv.wait(lock, [&] { return im.fatal || !im.ready.empty(); });
  if (im.fatal) fail(ErrorCode::Runtime, im.fatal_msg);
  TrialOutcome out = std::move(im.ready.front());
  im.ready.pop_front();
  ++im.delivered;
  return out;
}

std::uint64_t StreamExecutor::outstanding() const {
  const Pipeline& im = *impl_;
  std::lock_guard lock(im.mu);
  return im.pushed - im.delivered;
}

StreamReport StreamExecutor::finish() {
  Pipeline& im = *impl_;
  {
    std::lock_guard lock(im.mu);
    if (im.finished) return im.report;
    im.closing = true;
    im.wake_all_locked();
  }
  im.workers.clear();  // join; workers drain every admitted batch first
  if (im.fatal) fail(ErrorCode::Runtime, im.fatal_msg);
  im.report = im.build_report();
  im.finished = true;
  if (im.rec != nullptr) im.report.record(*im.rec);
  return im.report;
}

StreamResult run_stream(const FlattenResult& flat, const Schedule& schedule,
                        const Machine& machine,
                        const std::vector<std::map<std::string, pits::Value>>& batches,
                        const StreamOptions& options) {
  StreamExecutor ex(flat, schedule, machine, options);
  StreamResult out;
  out.outcomes.reserve(batches.size());
  for (const auto& batch : batches) {
    ex.push(batch);  // blocks on backpressure; drained below keeps it short
    while (auto ready = ex.try_pop()) {
      out.outcomes.push_back(std::move(*ready));
    }
  }
  while (ex.outstanding() > 0) {
    out.outcomes.push_back(ex.pop());
  }
  out.report = ex.finish();
  return out;
}

TrialOutcome run_batch(const FlattenResult& flat, const Schedule& schedule,
                       const Machine& machine, const ExternalInputs& inputs,
                       const RunOptions& options) {
  StreamOptions opt;
  opt.run = options;
  opt.window = 1;  // so every ring holds the one packet that crosses it
  Pipeline im(flat, schedule, machine, std::move(opt));
  // Admitted and closed before any worker starts, so each worker leaves
  // once its lanes have run the batch. The batch borrows the caller's
  // inputs, which outlive the run.
  im.admit(std::shared_ptr<const ExternalInputs>(std::shared_ptr<void>(),
                                                 &inputs));
  im.closing = true;
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(im.threads_n - 1);
    try {
      for (std::size_t w = 1; w < im.threads_n; ++w) {
        helpers.emplace_back([&im, w] { im.worker_main(w); });
      }
    } catch (...) {
      im.stop("could not start a stream worker");  // the started ones leave
      throw;
    }
    im.worker_main(0);
  }  // join
  if (im.fatal) fail(ErrorCode::Runtime, im.fatal_msg);
  return std::move(im.ready.front());
}

}  // namespace banger::exec
