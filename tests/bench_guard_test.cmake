# Drives the perf guard (`bench_to_json --check`) on a small synthetic
# baseline and five fresh runs, checking its exit code for each:
#   - a hot benchmark missing from the fresh run fails (exit 1);
#   - one hot benchmark 30% slower than its peers fails (exit 1);
#   - a uniform slowdown passes (exit 0): it is the machine, not the code;
#   - with repetitions, one slow sample of a hot benchmark passes when
#     its median is in bounds (exit 0): the guard reads `_median` rows;
#   - with repetitions, a hot benchmark whose median is 30% slower
#     fails (exit 1).
# It also converts a CSV with repetitions to JSON: each benchmark's
# median under its plain name, with the iterations of its samples, or no
# iterations when the CSV holds aggregates only.
#
#   cmake -DBENCH_TO_JSON=path/to/bench_to_json -DWORK_DIR=dir \
#         -P tests/bench_guard_test.cmake

if(NOT BENCH_TO_JSON OR NOT WORK_DIR)
  message(FATAL_ERROR "set BENCH_TO_JSON and WORK_DIR")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

# Three hot benchmarks (named in bench_to_json's kHotBenchmarks) and three
# peers, each 1000 ns per op in the baseline.
set(names BM_PitsExecVm BM_PitsCompile BM_ExecRunVm BM_PeerA BM_PeerB BM_PeerC)
set(baseline "{\n  \"benchmarks\": [\n")
set(first TRUE)
foreach(name IN LISTS names)
  if(NOT first)
    string(APPEND baseline ",\n")
  endif()
  set(first FALSE)
  string(APPEND baseline
    "    {\"name\": \"${name}\", \"iterations\": 1000, "
    "\"real_ns_per_op\": 1000, \"cpu_ns_per_op\": 1000}")
endforeach()
string(APPEND baseline "\n  ]\n}\n")
file(WRITE "${WORK_DIR}/baseline.json" "${baseline}")

# Writes a google-benchmark CSV with `ns` per op for each name in `names`
# except `skip`, and `slow_ns` for `slow`.
function(write_csv path skip slow slow_ns ns)
  set(csv "name,iterations,real_time,cpu_time,time_unit\n")
  foreach(name IN LISTS names)
    if(name STREQUAL skip)
      continue()
    endif()
    set(t ${ns})
    if(name STREQUAL slow)
      set(t ${slow_ns})
    endif()
    string(APPEND csv "\"${name}\",1000,${t},${t},ns\n")
  endforeach()
  file(WRITE "${path}" "${csv}")
endfunction()

function(expect_exit label want csv)
  execute_process(
    COMMAND "${BENCH_TO_JSON}" --check "${WORK_DIR}/baseline.json" "${csv}"
    RESULT_VARIABLE got
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT got EQUAL want)
    message(SEND_ERROR
      "${label}: expected exit ${want}, got ${got}\n${out}${err}")
  else()
    message(STATUS "${label}: exit ${got} as expected")
  endif()
endfunction()

write_csv("${WORK_DIR}/missing.csv" BM_PitsExecVm "" 0 1000)
expect_exit("hot benchmark missing from the fresh run" 1
            "${WORK_DIR}/missing.csv")

write_csv("${WORK_DIR}/slow.csv" "" BM_PitsCompile 1300 1000)
expect_exit("one hot benchmark 30% slower than its peers" 1
            "${WORK_DIR}/slow.csv")

write_csv("${WORK_DIR}/uniform.csv" "" "" 0 2000)
expect_exit("uniform 2x slowdown" 0 "${WORK_DIR}/uniform.csv")

# Writes the CSV of a 3-repetition run: each name's samples as plain
# rows (left out with a trailing AGGREGATES_ONLY), then its aggregates.
# Every name runs 1000 ns per op except `slow`, whose samples are
# `slow_samples` with median `slow_median`.
function(write_repeated_csv path slow slow_samples slow_median)
  set(aggregates_only FALSE)
  if("${ARGN}" STREQUAL "AGGREGATES_ONLY")
    set(aggregates_only TRUE)
  endif()
  set(csv "name,iterations,real_time,cpu_time,time_unit\n")
  foreach(name IN LISTS names)
    set(samples 1000 1000 1000)
    set(median 1000)
    if(name STREQUAL slow)
      set(samples ${slow_samples})
      set(median ${slow_median})
    endif()
    if(NOT aggregates_only)
      foreach(t IN LISTS samples)
        string(APPEND csv "\"${name}\",1000,${t},${t},ns\n")
      endforeach()
    endif()
    string(APPEND csv
      "\"${name}_mean\",3,${median},${median},ns\n"
      "\"${name}_median\",3,${median},${median},ns\n"
      "\"${name}_stddev\",3,10,10,ns\n"
      "\"${name}_cv\",3,0.01,0.01,ns\n")
  endforeach()
  file(WRITE "${path}" "${csv}")
endfunction()

write_repeated_csv("${WORK_DIR}/one_slow_sample.csv" BM_PitsCompile
                   "1000;1000;2000" 1000)
expect_exit("one slow sample, median in bounds" 0
            "${WORK_DIR}/one_slow_sample.csv")

write_repeated_csv("${WORK_DIR}/slow_median.csv" BM_PitsCompile
                   "1300;1300;1300" 1300)
expect_exit("median 30% slower than its peers" 1
            "${WORK_DIR}/slow_median.csv")

# Converts `csv` to JSON and checks that the output matches `want` and
# does not match `reject` (regular expressions).
function(expect_json label csv want reject)
  execute_process(
    COMMAND "${BENCH_TO_JSON}" "${csv}" "${WORK_DIR}/converted.json"
    RESULT_VARIABLE got
    ERROR_VARIABLE err)
  file(READ "${WORK_DIR}/converted.json" json)
  if(NOT got EQUAL 0 OR NOT json MATCHES "${want}" OR json MATCHES "${reject}")
    message(SEND_ERROR "${label}: exit ${got}, unexpected JSON\n${json}${err}")
  else()
    message(STATUS "${label}: converted as expected")
  endif()
endfunction()

expect_json("medians take their samples' iterations"
            "${WORK_DIR}/one_slow_sample.csv"
            "\"BM_PitsCompile\", \"iterations\": 1000, \"real_ns_per_op\": 1000,"
            "_median|\"iterations\": 3")

write_repeated_csv("${WORK_DIR}/aggregates_only.csv" BM_PitsCompile
                   "1300;1300;1300" 1300 AGGREGATES_ONLY)
expect_json("aggregates only: no iterations"
            "${WORK_DIR}/aggregates_only.csv"
            "\"BM_PitsCompile\", \"real_ns_per_op\": 1300,"
            "_median|iterations")
