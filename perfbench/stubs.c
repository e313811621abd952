/* Two system calls the OCaml Unix library lacks: a monotonic,
   nanosecond-resolution clock (Unix.gettimeofday has microsecond
   resolution, which quantizes verdict latencies of a few tens of
   microseconds), and CPU affinity. */

#define _GNU_SOURCE
#include <sched.h>
#include <sys/types.h>
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double perfbench_monotonic_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value perfbench_monotonic(value unit)
{
  return caml_copy_double(perfbench_monotonic_unboxed(unit));
}

/* Restrict process [pid] (0: the caller) to CPU [cpu]; true on success. */
value perfbench_pin(value pid, value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity((pid_t)Int_val(pid), sizeof set, &set) == 0);
}
