// bench_to_json — converts google-benchmark CSV output into the compact
// BENCH_sched.json artifact CI archives: one record per benchmark with
// ns/op and items/sec. Usage:
//
//   perf_micro --benchmark_format=csv | bench_to_json > BENCH_sched.json
//   bench_to_json results.csv BENCH_sched.json
//   perf_micro --benchmark_format=csv | bench_to_json --check BENCH_pits.json
//
// Reads the named file (or stdin when absent / "-"), writes the named
// output (or stdout). Exits 1 on malformed input.
//
// `--check BASELINE.json [CSV]` is the CI perf-smoke guard: it compares
// the fresh CSV against a committed baseline produced by this tool.
// Because CI machines differ from the machine that recorded the
// baseline, raw ns/op is not comparable; the guard first normalises by
// the MEDIAN new/old ratio across every benchmark present in both runs
// (the machine-speed factor), then fails — exit 1 — if any *hot*
// benchmark (the named VM / executor / serve paths below) is more than
// 25% slower per op than the normalised baseline. A uniform slowdown
// (slower CI box) passes; a hot path regressing against its peers fails.
// A hot benchmark the baseline records but the fresh run lacks fails too
// (a renamed or deleted benchmark must leave the baseline with it); one
// the baseline lacks is skipped, since each BENCH_*.json holds only its
// own layer's rows.
// Benchmarks are compared by CPU time per op, except wall-clock ones
// (registered with UseRealTime(), so named `.../real_time`): threaded
// work runs off the benchmark's own thread, so only their real time counts.
//
// A CSV from `--benchmark_repetitions=N` carries aggregate rows
// (`NAME_mean`, `NAME_median`, `NAME_stddev`, `NAME_cv`). When it does,
// both modes read each benchmark's `_median` row under its plain name
// and drop the rest, so the guard compares medians, not one sample. An
// aggregate's `iterations` column counts repetitions, so a converted
// median takes its iterations from a sample row of the benchmark, and
// leaves the field out when the CSV has none (aggregates only).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

/// The regression-guarded hot paths. Keep in sync with
/// docs/performance.md; names must match the benchmark output exactly.
const char* const kHotBenchmarks[] = {
    "BM_PitsExecVm",
    "BM_PitsStencilLoop",
    "BM_PitsCompile",
    "BM_AnalyzeDesign/real_time",
    "BM_CompileDesignCold/real_time",
    "BM_PitsFrontEnd",
    "BM_ParseDesign",
    "BM_FlattenHierarchy",
    "BM_ExecRunAlternating/real_time",
    "BM_ExecRunVm",
    "BM_ExecRunBatch/4096",
    "BM_ExecStream/1024/real_time",
    "BM_ExecPerBatchRun/64/real_time",
    "BM_ExecRunScheduled/real_time",
    "BM_ExecStreamFine/real_time",
    "BM_ServeTrialCached",
    "BM_ServeTrialBatch",
    "BM_JsonParse",
    "BM_JsonDump",
    "BM_EvalInputLine",
    "BM_RenderRunResult",
    "BM_ScheduleEtf/4096",
    "BM_ScheduleDsh/4096",
};

constexpr double kMaxRegression = 1.25;  // fail above +25% per op

/// Splits one CSV line, honouring double-quoted fields (google-benchmark
/// quotes names and counter headers; it never emits embedded quotes).
std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (char ch : line) {
    if (ch == '"') {
      quoted = !quoted;
    } else if (ch == ',' && !quoted) {
      fields.push_back(field);
      field.clear();
    } else {
      field += ch;
    }
  }
  fields.push_back(field);
  return fields;
}

/// std::stod without the exceptions: false (and untouched `out`) on
/// malformed or empty text, so callers can report the offending line
/// and exit 1 instead of dying on an uncaught std::invalid_argument.
bool parse_num(const std::string& text, double& out) {
  try {
    std::size_t consumed = 0;
    const double value = std::stod(text, &consumed);
    if (consumed == 0) return false;
    out = value;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

double to_ns(double value, const std::string& unit) {
  if (unit == "us") return value * 1e3;
  if (unit == "ms") return value * 1e6;
  if (unit == "s") return value * 1e9;
  return value;  // ns (google-benchmark's default)
}

/// JSON string escaping for benchmark names (/, digits, letters only in
/// practice, but be safe).
std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

/// True for wall-clock benchmarks, which the guard compares by real
/// time instead of CPU time.
bool uses_real_time(const std::string& name) {
  return name.ends_with("/real_time");
}

/// One benchmark row of a google-benchmark CSV, times in ns per op.
struct Row {
  std::string name;
  std::string iterations;  ///< empty when unknown (an aggregate)
  double real_ns = 0;
  double cpu_ns = 0;
  std::string items_per_sec;  ///< empty when the benchmark reports none
};

constexpr std::string_view kMedian = "_median";

/// The benchmark rows of a google-benchmark CSV stream (context lines
/// before the header are skipped); only the `_median` aggregates, under
/// their plain names, when the CSV has aggregates. Reports its own error
/// (missing header, malformed number) to stderr and returns false.
bool read_csv(std::istream& in, std::vector<Row>& out) {
  std::string line;
  std::vector<std::string> header;
  while (std::getline(in, line)) {
    if (line.rfind("name,", 0) == 0) {
      header = split_csv(line);
      break;
    }
  }
  if (header.empty()) {
    std::fprintf(stderr, "bench_to_json: no CSV header found\n");
    return false;
  }
  auto column = [&](const std::string& name) -> std::size_t {
    for (std::size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return i;
    }
    return header.size();
  };
  const std::size_t col_name = column("name");
  const std::size_t col_iters = column("iterations");
  const std::size_t col_real = column("real_time");
  const std::size_t col_cpu = column("cpu_time");
  const std::size_t col_unit = column("time_unit");
  const std::size_t col_items = column("items_per_second");
  std::vector<Row> plain;
  std::vector<Row> medians;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto fields = split_csv(line);
    if (fields.size() <= col_cpu || fields[col_name].empty()) continue;
    const std::string& unit =
        col_unit < fields.size() ? fields[col_unit] : "ns";
    Row row;
    row.name = fields[col_name];
    if (!parse_num(fields[col_real], row.real_ns) ||
        !parse_num(fields[col_cpu], row.cpu_ns)) {
      std::fprintf(stderr, "bench_to_json: malformed timing in CSV line: %s\n",
                   line.c_str());
      return false;
    }
    row.real_ns = to_ns(row.real_ns, unit);
    row.cpu_ns = to_ns(row.cpu_ns, unit);
    if (col_iters < fields.size()) row.iterations = fields[col_iters];
    if (col_items < fields.size()) row.items_per_sec = fields[col_items];
    if (row.name.ends_with(kMedian)) {
      row.name.resize(row.name.size() - kMedian.size());
      medians.push_back(std::move(row));
    } else {
      plain.push_back(std::move(row));
    }
  }
  if (medians.empty()) {
    out = std::move(plain);
    return true;
  }
  std::map<std::string, std::string> sample_iterations;
  for (const Row& row : plain) {
    sample_iterations.emplace(row.name, row.iterations);
  }
  for (Row& row : medians) {
    const auto it = sample_iterations.find(row.name);
    row.iterations = it != sample_iterations.end() ? it->second : "";
  }
  out = std::move(medians);
  return true;
}

/// name -> ns per op (real_ns_per_op for wall-clock benchmarks,
/// cpu_ns_per_op otherwise) from a BENCH_*.json file this tool wrote.
/// The format is fixed (one record per line, fields in emit order), so a
/// line scan is exact — no general JSON parser needed. Reports its own
/// error (unreadable file, malformed number, no records) to stderr and
/// returns false.
bool parse_baseline(const std::string& path,
                    std::map<std::string, double>& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_to_json: cannot read baseline `%s`\n",
                 path.c_str());
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    const auto name_key = line.find("\"name\": \"");
    if (name_key == std::string::npos) continue;
    const auto name_begin = name_key + 9;
    const auto name_end = line.find('"', name_begin);
    if (name_end == std::string::npos) continue;
    std::string name = line.substr(name_begin, name_end - name_begin);
    // Undo json_escape (only " and \ are ever escaped).
    std::string unescaped;
    for (std::size_t i = 0; i < name.size(); ++i) {
      if (name[i] == '\\' && i + 1 < name.size()) ++i;
      unescaped += name[i];
    }
    const std::string label =
        uses_real_time(unescaped) ? "real_ns_per_op" : "cpu_ns_per_op";
    const std::string field = "\"" + label + "\": ";
    const auto key = line.find(field, name_end);
    if (key == std::string::npos) continue;
    double ns = 0;
    if (!parse_num(line.substr(key + field.size()), ns)) {
      std::fprintf(stderr,
                   "bench_to_json: malformed %s in baseline `%s` line: %s\n",
                   label.c_str(), path.c_str(), line.c_str());
      return false;
    }
    out[unescaped] = ns;
  }
  if (out.empty()) {
    std::fprintf(stderr, "bench_to_json: no records in baseline `%s`\n",
                 path.c_str());
    return false;
  }
  return true;
}

int run_check(const std::string& baseline_path, std::istream& in) {
  std::map<std::string, double> baseline;
  if (!parse_baseline(baseline_path, baseline)) return 1;
  std::vector<Row> rows;
  if (!read_csv(in, rows)) return 1;
  std::map<std::string, double> fresh;
  for (const Row& row : rows) {
    fresh[row.name] = uses_real_time(row.name) ? row.real_ns : row.cpu_ns;
  }

  // Machine-speed factor: median new/old ratio over the shared set.
  std::vector<double> ratios;
  for (const auto& [name, ns] : fresh) {
    const auto it = baseline.find(name);
    if (it != baseline.end() && it->second > 0) {
      ratios.push_back(ns / it->second);
    }
  }
  if (ratios.size() < 3) {
    std::fprintf(stderr,
                 "bench_to_json: only %zu benchmarks shared with the "
                 "baseline; need at least 3 to normalise\n",
                 ratios.size());
    return 1;
  }
  std::sort(ratios.begin(), ratios.end());
  const double median = ratios[ratios.size() / 2];

  int failures = 0;
  std::printf("perf-smoke vs %s (machine factor %.3fx)\n",
              baseline_path.c_str(), median);
  for (const char* hot : kHotBenchmarks) {
    const auto base = baseline.find(hot);
    const auto now = fresh.find(hot);
    if (base == baseline.end()) {
      std::printf("  %-30s SKIP (missing from baseline)\n", hot);
      continue;
    }
    if (now == fresh.end()) {
      std::printf("  %-30s FAIL (missing from fresh run)\n", hot);
      ++failures;
      continue;
    }
    const double normalized = (now->second / base->second) / median;
    const bool bad = normalized > kMaxRegression;
    std::printf("  %-30s %12.0f -> %12.0f ns/op  %+6.1f%%  %s\n", hot,
                base->second, now->second, (normalized - 1.0) * 100.0,
                bad ? "FAIL" : "ok");
    if (bad) ++failures;
  }
  if (failures > 0) {
    std::fprintf(stderr,
                 "bench_to_json: %d hot benchmark(s) missing or regressed "
                 "more than %.0f%% per op\n",
                 failures, (kMaxRegression - 1.0) * 100.0);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--check") {
    if (argc < 3) {
      std::fprintf(stderr,
                   "usage: bench_to_json --check BASELINE.json [CSV]\n");
      return 1;
    }
    std::ifstream file;
    std::istream* in = &std::cin;
    if (argc > 3 && std::string(argv[3]) != "-") {
      file.open(argv[3]);
      if (!file) {
        std::fprintf(stderr, "bench_to_json: cannot read `%s`\n", argv[3]);
        return 1;
      }
      in = &file;
    }
    return run_check(argv[2], *in);
  }

  std::ifstream file;
  std::istream* in = &std::cin;
  if (argc > 1 && std::string(argv[1]) != "-") {
    file.open(argv[1]);
    if (!file) {
      std::fprintf(stderr, "bench_to_json: cannot read `%s`\n", argv[1]);
      return 1;
    }
    in = &file;
  }

  std::vector<Row> rows;
  if (!read_csv(*in, rows)) return 1;
  std::ostringstream out;
  out << "{\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    if (i > 0) out << ",\n";
    out << "    {\"name\": \"" << json_escape(row.name) << "\"";
    if (!row.iterations.empty()) {
      out << ", \"iterations\": " << row.iterations;
    }
    out << ", \"real_ns_per_op\": " << row.real_ns
        << ", \"cpu_ns_per_op\": " << row.cpu_ns;
    if (!row.items_per_sec.empty()) {
      out << ", \"items_per_sec\": " << row.items_per_sec;
    }
    out << "}";
  }
  out << "\n  ]\n}\n";

  if (argc > 2) {
    std::ofstream dst(argv[2]);
    if (!dst) {
      std::fprintf(stderr, "bench_to_json: cannot write `%s`\n", argv[2]);
      return 1;
    }
    dst << out.str();
  } else {
    std::cout << out.str();
  }
  return 0;
}
