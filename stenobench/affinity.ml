(* Pinning a thread to one CPU.  The host-speed probes ([Common.probe])
   measure the CPU they run on; a domain pinned to a CPU runs there, and
   so do the compiler processes it starts, which inherit the pinning.
   The CPUs are those the process could use when it started, so a pinned
   thread can still unpin itself. *)

external get : unit -> int array = "stenobench_getaffinity"
external set : int array -> bool = "stenobench_setaffinity"

let cpus = get ()

(* Pin the calling thread to the [n]-th CPU of the process (wrapping
   around); a no-op where affinity is not available. *)
let pin n =
  if Array.length cpus > 0 then ignore (set [| cpus.(n mod Array.length cpus) |])

(* Let the calling thread run on every CPU of the process again.  A domain
   inherits the pinning of the thread that spawns it, and so do the
   runtime's helper threads it starts before its own code can move it. *)
let unpin () = if Array.length cpus > 0 then ignore (set cpus)
