# CLI-level acceptance of the gate-level backend commands (ctest -P script).
#
# Exercises the emit-verilog / gatesim subcommands end to end over a shared
# persistent store:
#   1. emit-verilog writes the sign-off Verilog and reports equivalence;
#   2. gatesim (warm store: the emitted HDL loads from disk) reports the
#      comparator/ring checks passing and the decode bit-identical;
#   3. gatesim --top=<nonexistent> must fail with a structured diagnostic
#      naming the module, exit nonzero, and leave the store usable (a
#      follow-up clean run still succeeds warm);
#   4. emit-verilog into a directory that does not exist must name the
#      path it could not write, exit nonzero and print no "wrote" line;
#   5. a numeric flag that does not parse must stop the run with exit 2
#      and an error naming the flag, before any output;
#   6. an unknown VCOADC_SIMD spelling must warn, naming it and the
#      accepted ones, and leave the tier ladder uncapped;
#   7. a --batch-width outside 0/1/2/4/8 and a negative --threads must
#      stop the run with exit 2 and an error naming the flag, before any
#      output.
#
# Expects -DCLI=<vcoadc_cli path> -DWORK=<dir>.

foreach(var CLI WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_gate_commands: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(STORE "${WORK}/store")
set(SPEC --slices=4 --samples=256)

# --- 1. emit-verilog ------------------------------------------------------
execute_process(
  COMMAND "${CLI}" emit-verilog ${SPEC} "--out=${WORK}" "--store=${STORE}"
  OUTPUT_VARIABLE out1 ERROR_VARIABLE err1 RESULT_VARIABLE rc1)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "emit-verilog failed (${rc1}):\n${out1}\n${err1}")
endif()
if(NOT out1 MATCHES "instances verified equivalent")
  message(FATAL_ERROR "emit-verilog did not report equivalence:\n${out1}")
endif()
if(NOT EXISTS "${WORK}/adc_top.v")
  message(FATAL_ERROR "emit-verilog wrote no adc_top.v under ${WORK}")
endif()
file(SIZE "${WORK}/adc_top.v" VSIZE)
if(VSIZE EQUAL 0)
  message(FATAL_ERROR "emit-verilog wrote an empty adc_top.v")
endif()

# --- 2. gatesim over the warm store ---------------------------------------
execute_process(
  COMMAND "${CLI}" gatesim ${SPEC} "--store=${STORE}"
  OUTPUT_VARIABLE out2 ERROR_VARIABLE err2 RESULT_VARIABLE rc2)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "gatesim failed (${rc2}):\n${out2}\n${err2}")
endif()
if(NOT out2 MATCHES "comparator truth table: pass")
  message(FATAL_ERROR "gatesim comparator check did not pass:\n${out2}")
endif()
if(NOT out2 MATCHES "ring period .*: pass")
  message(FATAL_ERROR "gatesim ring check did not pass:\n${out2}")
endif()
if(NOT out2 MATCHES "bit-identical")
  message(FATAL_ERROR "gatesim decode was not bit-identical:\n${out2}")
endif()

# --- 3. unresolvable top: structured refusal, clean recovery --------------
execute_process(
  COMMAND "${CLI}" gatesim ${SPEC} --top=no_such_module "--store=${STORE}"
  OUTPUT_VARIABLE out3 ERROR_VARIABLE err3 RESULT_VARIABLE rc3)
if(rc3 EQUAL 0)
  message(FATAL_ERROR "gatesim accepted a nonexistent top module:\n${out3}")
endif()
if(NOT err3 MATCHES "no_such_module")
  message(FATAL_ERROR
    "gatesim refusal did not name the bad module:\n${err3}")
endif()
execute_process(
  COMMAND "${CLI}" gatesim ${SPEC} "--store=${STORE}"
  OUTPUT_VARIABLE out4 ERROR_VARIABLE err4 RESULT_VARIABLE rc4)
if(NOT rc4 EQUAL 0)
  message(FATAL_ERROR
    "gatesim did not recover after the refused top (${rc4}):\n${err4}")
endif()

# --- 4. unwritable output: the failed write is an error ------------------
set(MISSING "${WORK}/no_such_dir")
execute_process(
  COMMAND "${CLI}" emit-verilog ${SPEC} "--out=${MISSING}" "--store=${STORE}"
  OUTPUT_VARIABLE out5 ERROR_VARIABLE err5 RESULT_VARIABLE rc5)
if(rc5 EQUAL 0)
  message(FATAL_ERROR
    "emit-verilog exited 0 with an unwritable --out:\n${out5}\n${err5}")
endif()
if(out5 MATCHES "wrote")
  message(FATAL_ERROR "emit-verilog claimed a write it did not make:\n${out5}")
endif()
if(NOT err5 MATCHES "no_such_dir/adc_top.v")
  message(FATAL_ERROR "emit-verilog did not name the unwritable path:\n${err5}")
endif()
if(EXISTS "${MISSING}")
  message(FATAL_ERROR "emit-verilog created ${MISSING}")
endif()

# --- 5. malformed number: refused before any work -------------------------
execute_process(
  COMMAND "${CLI}" simulate --slices=4 --samples=16k
  OUTPUT_VARIABLE out6 ERROR_VARIABLE err6 RESULT_VARIABLE rc6)
if(NOT rc6 EQUAL 2)
  message(FATAL_ERROR
    "simulate --samples=16k exited ${rc6}, not 2:\n${out6}\n${err6}")
endif()
if(NOT err6 MATCHES "--samples=16k")
  message(FATAL_ERROR "the refusal did not name --samples:\n${err6}")
endif()
if(NOT out6 STREQUAL "")
  message(FATAL_ERROR "simulate printed output before refusing:\n${out6}")
endif()

# --- 6. unknown tier cap: a warning, no cap --------------------------------
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env VCOADC_SIMD=scalar
    "${CLI}" simulate ${SPEC} --cache-stats
  OUTPUT_VARIABLE out7 ERROR_VARIABLE err7 RESULT_VARIABLE rc7)
if(NOT rc7 EQUAL 0)
  message(FATAL_ERROR "simulate under VCOADC_SIMD=scalar failed (${rc7}):\n"
    "${out7}\n${err7}")
endif()
if(NOT err7 MATCHES "VCOADC_SIMD=scalar is not a tier"
   OR NOT err7 MATCHES "auto, sse2, avx2, avx512")
  message(FATAL_ERROR "no warning for VCOADC_SIMD=scalar:\n${err7}")
endif()
string(REGEX MATCH "tier ([a-z0-9]+) [^\n]*cpu ([a-z0-9]+)" simd "${out7}")
if(simd STREQUAL "" OR NOT CMAKE_MATCH_1 STREQUAL CMAKE_MATCH_2)
  message(FATAL_ERROR
    "VCOADC_SIMD=scalar capped the tier below the CPU's:\n${out7}")
endif()

# --- 7. out-of-range lane width and thread count: refused ----------------
foreach(bad --batch-width=3 --threads=-3)
  execute_process(
    COMMAND "${CLI}" montecarlo ${SPEC} --runs=3 ${bad}
    OUTPUT_VARIABLE out8 ERROR_VARIABLE err8 RESULT_VARIABLE rc8)
  if(NOT rc8 EQUAL 2)
    message(FATAL_ERROR
      "montecarlo ${bad} exited ${rc8}, not 2:\n${out8}\n${err8}")
  endif()
  if(NOT err8 MATCHES "${bad}")
    message(FATAL_ERROR "the refusal did not name ${bad}:\n${err8}")
  endif()
  if(NOT out8 STREQUAL "")
    message(FATAL_ERROR "montecarlo ${bad} printed output:\n${out8}")
  endif()
endforeach()

message(STATUS "cli gate commands: emit-verilog + gatesim pass, bad top "
  "refused cleanly, unwritable output and malformed numbers refused, "
  "unknown tier cap warned, bad lane width and thread count refused")
