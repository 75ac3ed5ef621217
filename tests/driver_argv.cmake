# Runs every bench/example driver with hostile command lines and checks
# the exit status: --help exits 0, a bad flag value or an unknown flag
# exits 2 (InvalidArgument), and no run may end on a signal.
#
#   cmake -DDRIVERS="path/a|path/b" -P tests/driver_argv.cmake
string(REPLACE "|" ";" drivers "${DRIVERS}")
set(failures 0)
foreach(driver ${drivers})
  foreach(case "--help=0" "--engine bogus=2" "--threads -1=2")
    string(REGEX MATCH "^(.*)=([0-9]+)$" matched "${case}")
    separate_arguments(argv UNIX_COMMAND "${CMAKE_MATCH_1}")
    set(expected "${CMAKE_MATCH_2}")
    execute_process(COMMAND ${driver} ${argv}
      RESULT_VARIABLE status OUTPUT_QUIET ERROR_QUIET TIMEOUT 120)
    if(NOT status STREQUAL expected)
      message(SEND_ERROR
        "${driver} ${CMAKE_MATCH_1}: exit '${status}', expected ${expected}")
      math(EXPR failures "${failures} + 1")
    endif()
  endforeach()
endforeach()
list(LENGTH drivers count)
message(STATUS "${count} drivers checked, ${failures} failures")
