# Runs the command given after `--` and passes only if it exits with
# EXPECT_EXIT (default 0) and its stdout+stderr match REGEX. CTest's own
# PASS_REGULAR_EXPRESSION ignores the exit code; this checks both.
#
#   cmake -DREGEX=<re> [-DEXPECT_EXIT=<n>] -P expect_output.cmake -- cmd args...
#
# The arguments become a CMake list, so none may contain a semicolon.
if(NOT DEFINED EXPECT_EXIT)
  set(EXPECT_EXIT 0)
endif()
set(command)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "expect_output.cmake: no command after --")
endif()

execute_process(COMMAND ${command} RESULT_VARIABLE exit_code
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT exit_code STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit status ${exit_code}, expected ${EXPECT_EXIT}")
endif()
if(NOT "${out}${err}" MATCHES "${REGEX}")
  message(FATAL_ERROR "output does not match: ${REGEX}")
endif()
