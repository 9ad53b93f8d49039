# Runs EXE with ARGS and fails unless every line of EXPECTED appears
# verbatim in its standard output.
#
#   cmake -DEXE=path/to/binary -DEXPECTED=lines.txt [-DARGS=a;b] -P expect_lines.cmake
execute_process(COMMAND ${EXE} ${ARGS} OUTPUT_VARIABLE output RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${status}")
endif()
file(STRINGS ${EXPECTED} expected_lines)
set(missing 0)
foreach(line IN LISTS expected_lines)
  string(FIND "${output}" "${line}" at)
  if(at EQUAL -1)
    message(SEND_ERROR "missing from the output: ${line}")
    set(missing 1)
  endif()
endforeach()
if(missing)
  message(FATAL_ERROR "${EXE}: output differs from ${EXPECTED}")
endif()
