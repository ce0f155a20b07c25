// banger/exec/plan.hpp
//
// Internal machinery shared by the trial runner (executor.cpp) and the
// stream runtime (stream.cpp): the process-wide compiled-routine cache
// and the per-design execution plan — which predecessor (and which of
// its outputs) feeds each task input, which chunk slot each variable
// lives in, which writer supplies each store — resolved once so the
// per-task hot path binds VM registers directly instead of building a
// std::map environment per task.
//
// Not part of the public exec API (include exec/executor.hpp or
// exec/stream.hpp instead), but a real header so the two execution modes
// and the white-box tests share one implementation.
#pragma once

#include <cstdint>
#include <exception>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "exec/executor.hpp"
#include "pits/bytecode.hpp"
#include "util/strings.hpp"

namespace banger::obs {
class TraceRecorder;
}  // namespace banger::obs

namespace banger::exec {

/// Per-trial task outputs, in Task::outputs declaration order.
using TaskOutputs = std::vector<pits::Value>;
using ExternalInputs = std::map<std::string, pits::Value>;

/// Stable per-task seed so duplicate copies (and re-runs) agree. The
/// seed basis is historical (a truncated FNV offset basis) and must
/// stay verbatim: generated programs embed these values.
inline std::uint64_t seed_for(const std::string& task_name,
                              std::uint64_t base) {
  return util::fnv1a64(task_name, 1469598103934665603ull ^ base);
}

// ---- compiled-routine cache -----------------------------------------
//
// Parsing, abstract interpretation, and bytecode compilation used to
// happen once per run; on the trial hot path they dwarfed execution
// itself. The cache is process-wide and keyed by routine shape
// (pits/shape.hpp): every routine is lexed to its key, but the front end
// runs once per shape, so repeated runs of a design, the renamed copies
// of one routine inside it, and designs sharing routines all share one
// chunk. Each task reads the chunk through its own text. Parse failures
// are not cached: they re-raise per run from the failing task's text.

/// One LRU list charged in bytes. Each entry is charged what it holds —
/// its key and chunk — once, when it is built. A get_all() call
/// resolves a design's routines as a unit: its hits move to the
/// most-recent end (in source order when it keys on one thread, in any
/// order among themselves when across workers), its misses join them
/// there in source order, and eviction then drops
/// least-recent entries while the total is over budget, stopping at the
/// first entry the call itself uses. A design larger than the whole
/// budget therefore compiles each routine once per run and stays
/// resident until a later call needs the room.
class ProgramCache {
 public:
  /// The process-wide budget. A compiled heat routine shape is charged a
  /// few KB, so the 32x32 and 64x64 heat rods together, 5.2k routines of
  /// under two hundred shapes, take a small fraction of it.
  static constexpr std::size_t kDefaultBudget = std::size_t{128} << 20;

  explicit ProgramCache(std::size_t budget = kDefaultBudget)
      : budget_(budget) {}

  /// One result of get_all(): the compiled routine with the source's
  /// own names, or the error its lex/parse raised.
  struct Lookup {
    std::shared_ptr<const pits::bc::Chunk> chunk;  ///< null on error
    /// Per shape number, the source's own spelling (views into the
    /// source); a chunk slot carries its shape number as VarInfo::sym.
    std::vector<std::string_view> names;
    std::exception_ptr error;
  };

  /// One source's entry; throws its lex/parse error.
  Lookup get(const std::string& source);

  /// Looks up a whole design's routines at once. Each source is lexed
  /// to its shape key and looked up straight away, across
  /// util::default_jobs() workers when there are many; only a missing
  /// shape's key is copied, for the cache to keep. Each distinct missing
  /// shape then compiles once, from the first source of that shape,
  /// outside the lock and across the workers when there are several.
  /// Compiled entries enter the cache in source order. Returns one
  /// Lookup per source, in order.
  std::vector<Lookup> get_all(const std::vector<const std::string*>& sources);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;     ///< compiles (first sight of a shape)
    std::uint64_t evictions = 0;  ///< entries dropped to make room
    std::uint64_t entries = 0;    ///< shapes resident now
    std::uint64_t bytes = 0;      ///< bytes the resident entries hold
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t budget() const noexcept { return budget_; }

 private:
  struct Entry {
    std::string key;  ///< the shape key
    std::shared_ptr<const pits::bc::Chunk> chunk;
    std::size_t bytes = 0;
    std::uint64_t call = 0;  ///< the get_all() that last used it
  };
  using Recency = std::list<Entry>;  ///< least recently used first

  /// Parses, analyses and compiles `source`; the AST is dropped.
  static Entry build(const std::string& source, std::string key);
  /// Mutex held. Moves `it` to the most-recent end as used by `call`.
  void touch_locked(Recency::iterator it, std::uint64_t call);
  /// Mutex held. Drops least-recent entries while over budget, up to the
  /// first one `call` (or a later call) uses.
  void evict_locked(std::uint64_t call);

  std::size_t budget_;
  mutable std::mutex mutex_;
  Recency recency_;
  /// Keyed by a view of each entry's own shape key. The hash only picks
  /// the bucket; keys compare in full.
  std::unordered_map<std::string_view, Recency::iterator> index_;
  std::uint64_t calls_ = 0;
  Stats stats_;
};

/// The process-wide instance every execution mode shares. It lives for
/// the whole process and is never destroyed, so exit does not free it.
ProgramCache& program_cache();

// ---- design plans ----------------------------------------------------

/// How one declared input of a task receives its value. Resolution
/// order mirrors the historical bind_inputs: a labelled in-edge whose
/// producer declares the variable, then any producing predecessor, then
/// an external input store; anything else is an error raised when the
/// task is reached (not at plan time — earlier tasks' runtime errors
/// must still win).
struct InputBinding {
  enum class Kind : std::uint8_t { Producer, External, Nothing };
  Kind kind = Kind::Nothing;
  std::uint32_t var = 0;  ///< index into Task::inputs
  graph::TaskId producer = graph::kNoTask;
  std::uint32_t producer_out = 0;  ///< index into the producer's outputs
  std::int32_t slot = -1;          ///< chunk slot, -1 when not in the chunk
  /// True when this binding is the only read of the producer's value in
  /// a run that executes every task once (no other consumer binding, no
  /// pass-through re-resolve, no store writer), so resolving may move it
  /// out instead of copying. The stream resolves only external inputs
  /// through the plan, so its duplicate copies never see a moved value.
  bool take = false;
};

struct OutputPlan {
  std::int32_t slot = -1;        ///< chunk slot, -1 when not in the chunk
  std::int32_t pass_input = -1;  ///< binding index for input pass-through
};

struct TaskPlan {
  /// The compiled routine, shared by every task of its shape and read
  /// through the task's own text; null exactly when the task has none.
  std::shared_ptr<const pits::bc::Chunk> chunk;
  /// False when a variable repeats in Task::outputs: collection then
  /// copies values instead of moving them out of the frame.
  bool unique_outputs = true;
  std::vector<InputBinding> inputs;
  std::vector<OutputPlan> outputs;
};

struct StoreWriter {
  graph::TaskId task = graph::kNoTask;
  std::uint32_t out = 0;  ///< index into the writer's outputs
};

struct DesignPlan {
  std::vector<TaskPlan> tasks;
  /// Per flat.stores entry: writers that actually declare the store's
  /// variable, in writer order (the last one present wins).
  std::vector<std::vector<StoreWriter>> store_writers;
};

DesignPlan build_plan(const FlattenResult& flat);

// ---- per-thread execution scratch ------------------------------------

/// Append-only streambuf over a pooled std::string: print() output
/// lands in a reusable buffer instead of a fresh ostringstream per task.
class TranscriptBuf final : public std::streambuf {
 public:
  std::string text;

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      text.push_back(traits_type::to_char_type(ch));
    }
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    text.append(s, static_cast<std::size_t>(n));
    return n;
  }
};

/// Reusable per-thread execution state: the VM register frame and the
/// transcript buffer keep their capacity across tasks and trials.
struct TaskScratch {
  pits::bc::Frame frame;
  TranscriptBuf transcript;
  std::ostream transcript_stream{&transcript};
};

/// The exact diagnostics the historical bind path raised, factored out
/// so the streaming executor reports byte-identical bind errors.
[[noreturn]] void fail_missing_external(const graph::Task& task,
                                        std::uint32_t var);
[[noreturn]] void fail_bound_to_nothing(const graph::Task& task,
                                        std::uint32_t var);

/// Resolves one input value. Producer outputs are stable once written
/// (each task's slot is assigned exactly once, before any dependant
/// binds), so reads need no lock beyond the caller's ordering.
pits::Value resolve_binding(const graph::Task& task, const InputBinding& b,
                            const ExternalInputs& external,
                            std::vector<std::optional<TaskOutputs>>& outs);

/// Resolves task `t`'s inputs and binds them straight into
/// scratch.frame's chunk slots. A task without a routine still resolves
/// every input, so its bind errors surface in task order.
void bind_task(const FlattenResult& flat, const DesignPlan& plan,
               graph::TaskId t, const ExternalInputs& external,
               std::vector<std::optional<TaskOutputs>>& outs,
               TaskScratch& scratch);

/// Executes task `t` after binding and collects its declared outputs in
/// declaration order. Declared outputs the routine never assigns but
/// receives as inputs are re-resolved through `pass` (a callable taking
/// the InputBinding and returning the value) — the batch executor
/// re-reads the producer's stored outputs, the streaming executor its
/// gathered packets.
template <class PassThrough>
TaskOutputs execute_task_with(const FlattenResult& flat,
                              const DesignPlan& plan, graph::TaskId t,
                              TaskScratch& scratch, const RunOptions& options,
                              PassThrough&& pass, std::string* transcript) {
  const graph::Task& task = flat.graph.task(t);
  const TaskPlan& tp = plan.tasks[t];
  TaskOutputs outputs;
  if (tp.chunk == nullptr) return outputs;

  const bool capture = transcript != nullptr && options.capture_transcript;
  scratch.transcript.text.clear();
  pits::ExecOptions exec_opts = options.pits;
  exec_opts.seed = seed_for(task.name, options.pits.seed);
  exec_opts.out = capture ? &scratch.transcript_stream : nullptr;
  try {
    pits::bc::run_frame(*tp.chunk, task.pits, scratch.frame, exec_opts);
  } catch (const Error& e) {
    fail(e.code(), "in task `" + task.name + "`: " + e.message(), e.pos());
  }
  outputs.reserve(task.outputs.size());
  for (std::size_t i = 0; i < task.outputs.size(); ++i) {
    const OutputPlan& op = tp.outputs[i];
    if (op.slot >= 0 &&
        scratch.frame.states[static_cast<std::size_t>(op.slot)] ==
            pits::bc::kSlotBound) {
      if (tp.unique_outputs) {
        outputs.push_back(std::move(
            scratch.frame.regs[static_cast<std::size_t>(op.slot)]));
      } else {
        outputs.push_back(scratch.frame.regs[static_cast<std::size_t>(op.slot)]);
      }
      continue;
    }
    if (op.pass_input >= 0) {
      outputs.push_back(
          pass(tp.inputs[static_cast<std::size_t>(op.pass_input)]));
      continue;
    }
    fail(ErrorCode::Runtime, "task `" + task.name +
                                 "` never assigned its output `" +
                                 task.outputs[i] + "`");
  }
  if (capture && !scratch.transcript.text.empty()) {
    *transcript += "[" + task.name + "]\n" + scratch.transcript.text;
  }
  return outputs;
}

/// execute_task_with specialised to the batch executors' pass-through:
/// re-resolve from the producer's stored outputs.
TaskOutputs execute_task(const FlattenResult& flat, const DesignPlan& plan,
                         graph::TaskId t, TaskScratch& scratch,
                         const RunOptions& options,
                         const ExternalInputs& external,
                         std::vector<std::optional<TaskOutputs>>& outs,
                         std::string* transcript);

/// Collects final store values (writer with the latest position wins; in
/// practice designs have a single writer per store).
void collect_stores(const FlattenResult& flat, const DesignPlan& plan,
                    const std::vector<std::optional<TaskOutputs>>& task_outputs,
                    const ExternalInputs& external, RunResult& result);

// ---- scheduled runs --------------------------------------------------

/// Executor::run's runtime (stream.cpp): `schedule` run as a stream of
/// one batch, with `options.faults` applied to its wiring. The outcome
/// carries the batch's earliest-scheduled error instead of throwing it.
TrialOutcome run_batch(const FlattenResult& flat, const Schedule& schedule,
                       const Machine& machine, const ExternalInputs& inputs,
                       const RunOptions& options);

/// Records a finished run on the recorder: one Wall span per task run
/// on track 3, a flow arrow per input whose producer first finished on
/// another processor, and the exec.* counters.
void record_run(obs::TraceRecorder& rec, const graph::TaskGraph& g,
                const RunResult& result);

}  // namespace banger::exec
