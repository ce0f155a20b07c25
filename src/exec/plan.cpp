#include "exec/plan.hpp"

#include <algorithm>
#include <array>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "analyze/absint.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace banger::exec {

namespace {

using pits::Value;

/// Does this (possibly comma-joined) edge variable list carry `var`?
bool edge_carries(std::string_view edge_var, const std::string& var) {
  for (;;) {
    const std::size_t comma = edge_var.find(',');
    if (util::trim(edge_var.substr(0, comma)) == var) return true;
    if (comma == std::string_view::npos) return false;
    edge_var.remove_prefix(comma + 1);
  }
}

std::optional<std::uint32_t> output_index(const graph::Task& task,
                                          const std::string& var) {
  for (std::size_t i = 0; i < task.outputs.size(); ++i) {
    if (task.outputs[i] == var) return static_cast<std::uint32_t>(i);
  }
  return std::nullopt;
}

}  // namespace

// ---- compiled-routine cache -----------------------------------------

namespace {

/// Heap bytes behind a shape's key and chunk, read off the container
/// capacities. Allocator headers are left out.
struct HeapBytes {
  std::size_t operator()(const std::string& s) const {
    return s.capacity() > std::string().capacity() ? s.capacity() + 1 : 0;
  }
  template <class T>
  std::size_t operator()(const std::vector<T>& v) const {
    std::size_t bytes = v.capacity() * sizeof(T);
    if constexpr (!std::is_trivially_copyable_v<T>) {
      for (const T& x : v) bytes += (*this)(x);
    }
    return bytes;
  }

  std::size_t operator()(const pits::Value& v) const {
    if (const pits::Vector* vec = v.vector_if()) return (*this)(*vec);
    if (const pits::Str* str = v.string_if()) return (*this)(*str);
    return 0;
  }
  std::size_t operator()(const pits::bc::CallSite& n) const {
    return (*this)(n.args);
  }
  std::size_t operator()(const pits::bc::Code& n) const {
    return (*this)(n.ins) + (*this)(n.sites);
  }
  std::size_t operator()(const pits::bc::Formula& n) const {
    return (*this)(n.param_reg) + (*this)(n.param_bind) + (*this)(n.code);
  }
  std::size_t operator()(const pits::bc::StmtRun& n) const {
    return (*this)(n.bounds) + (*this)(n.pos);
  }
  std::size_t operator()(const pits::bc::Chunk& n) const {
    return (*this)(n.main) + (*this)(n.formulas) + (*this)(n.consts) +
           (*this)(n.names) + (*this)(n.messages) + (*this)(n.vars) +
           (*this)(n.runs);
  }
};

/// Below this much routine text, keying runs on the calling thread: a
/// worker pool costs more to start than it saves. Warm get_all() of heat
/// routines on a 4-vCPU VM, serial against 4 workers (minimum of 41
/// calls, three runs): 64 routines (10 KB) 68-98 against 125-171 us,
/// 137 (29-34 KB) 193-230 against 212-249 us, 1057 (276 KB) 1.7-2.5
/// against 0.90-0.91 ms.
constexpr std::size_t kParallelKeyingBytes = std::size_t{32} << 10;

/// The error `source` raises on its own: a routine of a shape whose
/// build failed fails the same way, with its own names and positions.
std::exception_ptr own_error(const std::string& source,
                             std::exception_ptr shared) {
  try {
    (void)pits::Program::parse(source);
  } catch (...) {
    return std::current_exception();
  }
  return shared;
}

}  // namespace

ProgramCache::Entry ProgramCache::build(const std::string& source,
                                        std::string key) {
  Entry entry;
  entry.key = std::move(key);
  const pits::Program program = pits::Program::parse(source);
  // The abstract interpreter supplies proofs that let the compiler
  // elide bounds/binding checks and batch statement ticks.
  analyze::precompile_optimized(program);
  entry.chunk = program.compiled_chunk();
  const HeapBytes heap;
  entry.bytes = sizeof(Entry) + heap(entry.key) + sizeof(pits::bc::Chunk) +
                heap(*entry.chunk);
  return entry;
}

void ProgramCache::touch_locked(Recency::iterator it, std::uint64_t call) {
  recency_.splice(recency_.end(), recency_, it);
  it->call = call;
}

void ProgramCache::evict_locked(std::uint64_t call) {
  // Stamps grow with each call, so an entry stamped `call` or later is
  // in use by this call or by one that looked up after it.
  while (stats_.bytes > budget_ && !recency_.empty() &&
         recency_.front().call < call) {
    const Entry& victim = recency_.front();
    index_.erase(victim.key);  // before the key its index entry views dies
    stats_.bytes -= victim.bytes;
    --stats_.entries;
    ++stats_.evictions;
    recency_.pop_front();
  }
}

ProgramCache::Lookup ProgramCache::get(const std::string& source) {
  Lookup found = std::move(get_all({&source}).front());
  if (found.error) std::rethrow_exception(found.error);
  return found;
}

std::vector<ProgramCache::Lookup> ProgramCache::get_all(
    const std::vector<const std::string*>& sources) {
  std::vector<Lookup> out(sources.size());
  std::uint64_t call = 0;
  {
    std::lock_guard lock(mutex_);
    call = ++calls_;
  }
  // Sources are keyed in runs: a run's keys go one after another into
  // per-thread storage and are looked up under one lock, so a hit
  // copies nothing but the source's names; the key of a miss is copied
  // for the cache. A lexical error stays with its source and never
  // reaches the cache.
  const std::size_t n = sources.size();
  std::size_t text = 0;
  for (const std::string* source : sources) text += source->size();
  std::vector<std::string> missed(n);  // empty: no miss
  constexpr std::size_t kRun = 32;
  util::parallel_for(
      (n + kRun - 1) / kRun,
      text >= kParallelKeyingBytes ? util::default_jobs() : 1,
      [&](std::size_t run) {
        thread_local pits::ShapeKeyer keyer;
        thread_local std::string keys;
        keys.clear();
        const std::size_t begin = run * kRun;
        const std::size_t end = std::min(n, begin + kRun);
        // The key of source begin + k is keys[at[k], at[k + 1]).
        std::array<std::size_t, kRun + 1> at{};
        for (std::size_t i = begin; i < end; ++i) {
          try {
            const pits::Shape& shape = keyer(*sources[i]);
            out[i].names = shape.names;
            keys += shape.key;
          } catch (...) {
            out[i].error = std::current_exception();
          }
          at[i - begin + 1] = keys.size();
        }
        const auto key = [&](std::size_t i) {
          return std::string_view(keys).substr(
              at[i - begin], at[i - begin + 1] - at[i - begin]);
        };
        std::array<bool, kRun> miss{};
        {
          std::lock_guard lock(mutex_);
          for (std::size_t i = begin; i < end; ++i) {
            if (out[i].error) continue;
            if (const auto hit = index_.find(key(i)); hit != index_.end()) {
              ++stats_.hits;
              touch_locked(hit->second, call);
              out[i].chunk = hit->second->chunk;
            } else {
              miss[i - begin] = true;
            }
          }
        }
        for (std::size_t i = begin; i < end; ++i) {
          if (miss[i - begin]) missed[i] = key(i);
        }
      });

  // The distinct missing shapes in source order (by the source that
  // showed each first), and for each source that missed, the miss it
  // waits for.
  std::vector<std::size_t> misses;
  std::vector<std::pair<std::size_t, std::size_t>> waiting;
  std::uint64_t repeats = 0;  // a repeat shares the first sighting's compile
  {
    std::unordered_map<std::string_view, std::size_t> miss_index;
    for (std::size_t i = 0; i < n; ++i) {
      if (missed[i].empty()) continue;
      const auto [it, first] = miss_index.try_emplace(missed[i], misses.size());
      if (first) {
        misses.push_back(i);
      } else {
        ++repeats;
      }
      waiting.emplace_back(i, it->second);
    }
  }
  if (misses.empty()) return out;  // warm: no compile

  // Compile outside the lock, each miss on whichever worker takes it,
  // from the first source of its shape; errors stay with their shape.
  std::vector<Entry> built(misses.size());
  std::vector<std::exception_ptr> errors(misses.size());
  util::parallel_for(misses.size(), util::default_jobs(), [&](std::size_t m) {
    try {
      built[m] = build(*sources[misses[m]], std::move(missed[misses[m]]));
    } catch (...) {
      errors[m] = std::current_exception();
    }
  });

  std::vector<std::shared_ptr<const pits::bc::Chunk>> compiled(misses.size());
  {
    std::lock_guard lock(mutex_);
    stats_.hits += repeats;
    for (std::size_t m = 0; m < misses.size(); ++m) {
      if (errors[m]) continue;
      ++stats_.misses;  // a compile happened, even if the race below loses
      // A concurrent call may have compiled the same shape first: share
      // its entry instead of holding the chunk twice.
      auto found = index_.find(built[m].key);
      if (found != index_.end()) {
        touch_locked(found->second, call);
      } else {
        built[m].call = call;
        stats_.bytes += built[m].bytes;
        ++stats_.entries;
        recency_.push_back(std::move(built[m]));
        found = index_.emplace(recency_.back().key, std::prev(recency_.end()))
                    .first;
      }
      compiled[m] = found->second->chunk;
    }
    evict_locked(call);
  }
  for (const auto& [at, m] : waiting) {
    if (!errors[m]) {
      out[at].chunk = compiled[m];
    } else {
      out[at].error =
          at == misses[m] ? errors[m] : own_error(*sources[at], errors[m]);
    }
  }
  return out;
}

ProgramCache::Stats ProgramCache::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

ProgramCache& program_cache() {
  // Never destroyed: freeing every compiled routine at exit is work no
  // one waits for (thousands of routines on a large design).
  static ProgramCache& cache = *new ProgramCache;
  return cache;
}

// ---- design plans ----------------------------------------------------

DesignPlan build_plan(const FlattenResult& flat) {
  const graph::TaskGraph& g = flat.graph;
  DesignPlan plan;
  plan.tasks.resize(g.num_tasks());

  // The routines of every task before the first one that declares
  // outputs but has no routine, resolved in one batch; the first error
  // in task order is the one raised, whichever worker met it.
  TaskId stop = 0;
  std::vector<const std::string*> sources;
  std::vector<TaskId> owners;
  sources.reserve(g.num_tasks());
  owners.reserve(g.num_tasks());
  for (; stop < g.num_tasks(); ++stop) {
    const graph::Task& task = g.task(stop);
    if (util::trim(task.pits).empty()) {
      // Without outputs: a pure synchronisation node, a legal no-op
      // whose inputs still bind.
      if (!task.outputs.empty()) break;
      continue;
    }
    sources.push_back(&task.pits);
    owners.push_back(stop);
  }
  std::vector<ProgramCache::Lookup> found = program_cache().get_all(sources);
  std::vector<const std::vector<std::string_view>*> names(g.num_tasks());
  for (std::size_t i = 0; i < found.size(); ++i) {
    TaskPlan& tp = plan.tasks[owners[i]];
    names[owners[i]] = &found[i].names;
    if (found[i].error) {
      try {
        std::rethrow_exception(found[i].error);
      } catch (const Error& e) {
        fail(e.code(),
             "in task `" + g.task(owners[i]).name + "`: " + e.message(),
             e.pos());
      }
    }
    tp.chunk = std::move(found[i].chunk);
  }
  if (stop < g.num_tasks()) {
    fail(ErrorCode::Runtime, "task `" + g.task(stop).name +
                                 "` declares outputs but has no PITS routine");
  }

  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    const graph::Task& task = g.task(t);
    TaskPlan& tp = plan.tasks[t];
    const pits::bc::Chunk* chunk = tp.chunk.get();
    // The task's names give the variable's shape number, which is what
    // the shared chunk knows the slot by.
    auto slot_of = [&](const std::string& var) -> std::int32_t {
      if (chunk == nullptr) return -1;
      const std::vector<std::string_view>& own = *names[t];
      const auto at = std::find(own.begin(), own.end(), var);
      if (at == own.end()) return -1;
      const auto sym = static_cast<pits::SymId>(at - own.begin());
      for (std::size_t s = 0; s < chunk->vars.size(); ++s) {
        if (chunk->vars[s].sym == sym) return static_cast<std::int32_t>(s);
      }
      return -1;
    };
    tp.inputs.reserve(task.inputs.size());
    for (std::size_t i = 0; i < task.inputs.size(); ++i) {
      const std::string& var = task.inputs[i];
      InputBinding b;
      b.var = static_cast<std::uint32_t>(i);
      b.slot = slot_of(var);
      bool bound = false;
      // 1. A predecessor whose edge is labelled with this variable and
      // whose task declares it (a task's produced environment is exactly
      // its declared outputs, so the check is static).
      for (graph::EdgeId e : g.in_edges(t)) {
        const graph::Edge& edge = g.edge(e);
        if (!edge_carries(edge.var, var)) continue;
        if (auto out = output_index(g.task(edge.from), var)) {
          b.kind = InputBinding::Kind::Producer;
          b.producer = edge.from;
          b.producer_out = *out;
          bound = true;
          break;
        }
      }
      // 2. Unlabelled precedence edge from a predecessor that declares
      // the variable as an output (synthetic graphs wire values this way).
      if (!bound) {
        for (graph::EdgeId e : g.in_edges(t)) {
          const graph::Edge& edge = g.edge(e);
          if (auto out = output_index(g.task(edge.from), var)) {
            b.kind = InputBinding::Kind::Producer;
            b.producer = edge.from;
            b.producer_out = *out;
            bound = true;
            break;
          }
        }
      }
      // 3. An external input store of that variable.
      if (!bound) {
        if (const graph::FlatStore* store = flat.find_store(var);
            store != nullptr && store->writers.empty()) {
          b.kind = InputBinding::Kind::External;
        }
        // else Kind::Nothing: errors when (and only when) the task runs.
      }
      tp.inputs.push_back(b);
    }
    tp.outputs.reserve(task.outputs.size());
    for (std::size_t i = 0; i < task.outputs.size(); ++i) {
      const std::string& var = task.outputs[i];
      OutputPlan op;
      op.slot = slot_of(var);
      for (std::size_t j = 0; j < task.inputs.size(); ++j) {
        if (task.inputs[j] == var) {
          op.pass_input = static_cast<std::int32_t>(j);
          break;
        }
      }
      if (*output_index(task, var) != i) tp.unique_outputs = false;
      tp.outputs.push_back(op);
    }
  }
  plan.store_writers.resize(flat.stores.size());
  for (std::size_t s = 0; s < flat.stores.size(); ++s) {
    for (TaskId w : flat.stores[s].writers) {
      if (auto out = output_index(g.task(w), flat.stores[s].var)) {
        plan.store_writers[s].push_back({w, *out});
      }
    }
  }
  // Count every read of each produced value in a run that executes each
  // task once: consumer bindings, pass-through re-resolves at collection
  // time, and store writers. A value read exactly once can be moved to
  // its consumer instead of copied, which matters when tasks hand large
  // vectors down a chain.
  std::vector<std::vector<std::uint32_t>> uses(g.num_tasks());
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    uses[t].assign(g.task(t).outputs.size(), 0);
  }
  auto count_use = [&](const InputBinding& b) {
    if (b.kind == InputBinding::Kind::Producer &&
        b.producer_out < uses[b.producer].size()) {
      ++uses[b.producer][b.producer_out];
    }
  };
  for (const TaskPlan& tp : plan.tasks) {
    for (const InputBinding& b : tp.inputs) count_use(b);
    for (const OutputPlan& op : tp.outputs) {
      if (op.pass_input >= 0) {
        count_use(tp.inputs[static_cast<std::size_t>(op.pass_input)]);
      }
    }
  }
  // collect_stores reads each writer's stored output once at the end.
  for (const auto& writers : plan.store_writers) {
    for (const StoreWriter& w : writers) {
      if (w.out < uses[w.task].size()) ++uses[w.task][w.out];
    }
  }
  for (TaskPlan& tp : plan.tasks) {
    for (InputBinding& b : tp.inputs) {
      b.take = b.kind == InputBinding::Kind::Producer &&
               b.producer_out < uses[b.producer].size() &&
               uses[b.producer][b.producer_out] == 1;
    }
  }
  return plan;
}

// ---- binding / execution ---------------------------------------------

void fail_missing_external(const graph::Task& task, std::uint32_t var) {
  fail(ErrorCode::Runtime, "no value supplied for input store `" +
                               task.inputs[var] + "` needed by task `" +
                               task.name + "`");
}

void fail_bound_to_nothing(const graph::Task& task, std::uint32_t var) {
  fail(ErrorCode::Runtime, "input `" + task.inputs[var] + "` of task `" +
                               task.name + "` is bound to nothing");
}

Value resolve_binding(const graph::Task& task, const InputBinding& b,
                      const ExternalInputs& external,
                      std::vector<std::optional<TaskOutputs>>& outs) {
  switch (b.kind) {
    case InputBinding::Kind::Producer: {
      auto& produced = outs[b.producer];
      BANGER_ASSERT(produced.has_value(), "predecessor not yet executed");
      Value& v = (*produced)[b.producer_out];
      if (b.take) return std::move(v);
      return v;
    }
    case InputBinding::Kind::External: {
      auto it = external.find(task.inputs[b.var]);
      if (it == external.end()) fail_missing_external(task, b.var);
      return it->second;
    }
    case InputBinding::Kind::Nothing:
      break;
  }
  fail_bound_to_nothing(task, b.var);
}

void bind_task(const FlattenResult& flat, const DesignPlan& plan,
               graph::TaskId t, const ExternalInputs& external,
               std::vector<std::optional<TaskOutputs>>& outs,
               TaskScratch& scratch) {
  const graph::Task& task = flat.graph.task(t);
  const TaskPlan& tp = plan.tasks[t];
  if (tp.chunk != nullptr) scratch.frame.prepare(*tp.chunk);
  for (const InputBinding& b : tp.inputs) {
    Value v = resolve_binding(task, b, external, outs);
    // Inputs the routine never mentions have no slot; pass-through
    // outputs re-resolve them at collection time.
    if (b.slot >= 0) {
      scratch.frame.bind(static_cast<std::uint32_t>(b.slot), std::move(v));
    }
  }
}

TaskOutputs execute_task(const FlattenResult& flat, const DesignPlan& plan,
                         graph::TaskId t, TaskScratch& scratch,
                         const RunOptions& options,
                         const ExternalInputs& external,
                         std::vector<std::optional<TaskOutputs>>& outs,
                         std::string* transcript) {
  const graph::Task& task = flat.graph.task(t);
  return execute_task_with(
      flat, plan, t, scratch, options,
      [&](const InputBinding& b) {
        return resolve_binding(task, b, external, outs);
      },
      transcript);
}

void collect_stores(const FlattenResult& flat, const DesignPlan& plan,
                    const std::vector<std::optional<TaskOutputs>>& task_outputs,
                    const ExternalInputs& external, RunResult& result) {
  for (std::size_t s = 0; s < flat.stores.size(); ++s) {
    const graph::FlatStore& store = flat.stores[s];
    if (store.writers.empty()) {
      if (auto it = external.find(store.var); it != external.end()) {
        result.stores[store.var] = it->second;
      }
      continue;
    }
    for (const StoreWriter& w : plan.store_writers[s]) {
      const auto& produced = task_outputs[w.task];
      if (!produced) continue;
      result.stores[store.var] = (*produced)[w.out];
    }
    if (store.readers.empty()) {
      if (auto it = result.stores.find(store.var); it != result.stores.end()) {
        result.outputs[store.var] = it->second;
      }
    }
  }
}

}  // namespace banger::exec
