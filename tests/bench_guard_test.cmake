# Drives the perf guard (`bench_to_json --check`) on a small synthetic
# baseline and three fresh runs, checking its exit code for each:
#   - a hot benchmark missing from the fresh run fails (exit 1);
#   - one hot benchmark 30% slower than its peers fails (exit 1);
#   - a uniform slowdown passes (exit 0): it is the machine, not the code.
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
