/* CPU affinity of the calling thread (Linux), for affinity.ml. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

/* The CPUs the calling thread may run on; empty when unknown. */
value stenobench_getaffinity(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(cpus);
  cpu_set_t set;
  int cpu, n = 0;
  if (sched_getaffinity(0, sizeof set, &set) != 0 || CPU_COUNT(&set) == 0)
    CAMLreturn(Atom(0));
  cpus = caml_alloc_tuple(CPU_COUNT(&set));
  for (cpu = 0; cpu < CPU_SETSIZE; cpu++)
    if (CPU_ISSET(cpu, &set)) Store_field(cpus, n++, Val_int(cpu));
  CAMLreturn(cpus);
}

/* Restrict the calling thread to the given CPUs; false when that fails. */
value stenobench_setaffinity(value cpus)
{
  cpu_set_t set;
  mlsize_t i;
  CPU_ZERO(&set);
  for (i = 0; i < Wosize_val(cpus); i++) CPU_SET(Int_val(Field(cpus, i)), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
