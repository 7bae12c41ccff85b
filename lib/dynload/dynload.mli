(** Runtime native compilation and loading of generated query code
    (section 3.3 of the paper).

    The paper invokes the C# compiler on the generated class, loads the
    resulting DLL, and patches captured variables in via reflection; this
    module hands the generated module to a resident compile worker,
    loads the [.cmxs] it builds with [Dynlink], and passes captured
    values through an [Obj.t array] environment.

    The generated plugin references only [Stdlib] and [Steno_rt] (the
    int-keyed hash table behind GroupBy, Distinct and the hash join)
    and hands its compiled query function back to the host by
    raising a [Steno_result] exception from its initializer.  The
    host links [Steno_rt] and carries its [.cmi]: before each compile
    it writes that interface as [steno_rt.cmi] into the workdir (on the
    compiler's [-I]) unless the file there already holds it, and
    [Dynlink] resolves the plugin's reference against the host's own
    unit.  Plugin compilation stays hermetic: no install path, no
    [ocamlfind].

    A compile worker ([worker/steno_worker.ml]) is a separate executable
    that links [compiler-libs] (the host does not), built with the host;
    the build records its absolute path.  It runs the pipeline
    [ocamlopt -shared -I <workdir>] would, in-process, for one request
    after another, so the compiler's start-up and its [Stdlib] interface
    reads are paid once per worker rather than once per plugin.  Each
    build then starts one [as] and one linker.  On ELF/Linux the linker
    is [ld] itself, with the output flags [gcc -shared] would give it
    ([--build-id --eh-frame-hdr --hash-style=gnu]) but without gcc's
    crt objects and libraries, which a plugin does not need; on amd64
    that [as] run assembles the module and its startup code together.
    Other systems keep the configured link command and assemble the two
    separately.  [ocamlopt] itself is never started.

    Workers are pooled per domain: a compile takes an idle worker of its
    domain or starts one, so concurrent compiles never queue behind each
    other, sequential ones share a single worker, and a worker runs on
    the CPUs of the domain that started it (it inherits their affinity).
    A domain's idle workers stop when the domain exits.  A worker that misses a deadline, dies,
    or answers garbage is killed with its process group ([as] and [ld]
    included) and replaced on the next compile.  A worker retires by
    itself once its live heap has doubled since its first compile (the
    compiler keeps a few hundred words per plugin in tables no
    interface resets).  Workers exit when their host does.

    Compilation has a deliberate, measurable one-off cost (tens of
    milliseconds; section 7.1 reports 69 ms for the C# pipeline); use
    {!timings} to account for it, and cache {!compiled} values across
    invocations. *)

exception Compilation_failed of string

type timings = {
  write_ms : float;  (** writing the source file *)
  compile_ms : float;
      (** the compile worker's build, from request to reply (with a
          worker's start when none was idle) *)
  load_ms : float;  (** [Dynlink.loadfile_private] + handshake *)
}

type compiled = {
  run : Obj.t array -> Obj.t;
      (** The query function: environment of captured values in slot
          order to query result. *)
  timings : timings;
  source_path : string;  (** Kept for inspection; see {!keep_artifacts}. *)
}

(** Why a compilation could not produce a loaded plugin.  Foreign
    exceptions escaping a plugin's initializer are host-level bugs and
    propagate as raw exceptions instead. *)
type error =
  | Unavailable
      (** No compile worker executable, no assembler or linker on the
          worker's PATH, native [Dynlink] unsupported, or {!disabled}
          set. *)
  | Timeout of { timeout_ms : int }
      (** The compile worker exceeded its deadline and was killed. *)
  | Compile_error of string
      (** The compiler's diagnostics (type errors, and whatever [as] or
          [ld] printed); or the source could not be written (a missing
          workdir, a full disk); or the worker could not be started,
          died, or sent an unreadable reply. *)
  | Load_error of string  (** [Dynlink] failure or a plugin that never
                              performed the handshake. *)

val error_message : error -> string

val is_available : unit -> bool
(** Whether the compile worker executable exists, native dynlink is
    supported and {!disabled} is unset.  Starts no process: a missing
    assembler or linker shows up as [Error Unavailable] from the first
    compile. *)

val compile_result :
  ?timeout_ms:int -> source:string -> unit -> (compiled, error) result
(** Write, compile and load a generated plugin.  [timeout_ms] bounds the
    compile worker's build: past the deadline the worker is killed and
    [Error (Timeout _)] is returned, so a wedged or pathologically slow
    compile can never stall a query.  Thread- and domain-safe: each call
    uses a fresh module name.  Equivalent to {!compile_artifact} +
    {!load_file} + {!remove_artifact}. *)

(** {1 Split compile/load pipeline}

    The persistent plugin cache ([Pcache]) needs the two halves
    separately: compile once, copy the artifact into the store, load —
    and on a later run in another process, skip straight to the load. *)

type artifact = {
  a_cmxs : string;  (** the compiled shared object, ready to load *)
  a_ml : string;  (** the generated source it was built from *)
  a_modname : string;  (** module name stamped into the plugin *)
  a_write_ms : float;
  a_compile_ms : float;
}

val compile_artifact :
  ?timeout_ms:int -> source:string -> unit -> (artifact, error) result
(** Write the source and build it in a compile worker, leaving every
    artifact on disk.  I/O and worker failures come back as
    [Error (Compile_error _)], never as exceptions.  The caller must
    eventually call {!remove_artifact}. *)

val load_file : path:string -> unit -> (compiled, error) result
(** Dynlink the plugin at [path] and perform the [Steno_result]
    handshake.  Uses [Dynlink.loadfile_private], so repeated loads of
    the same module name — including a cached artifact stamped by
    another process — are safe.  The returned [timings] carry only
    [load_ms].  Any [Dynlink] failure is [Error (Load_error _)]; treat
    it as "this artifact is unusable" (delete and recompile), not as a
    fatal condition. *)

val remove_artifact : artifact -> unit
(** Delete the artifact's on-disk files (no-op when {!keep_artifacts}
    is set). *)

val fingerprint : unit -> string
(** Identifies the compiler/ABI this process compiles and loads against
    (OCaml version, word size, the version of the compiler the worker
    was built with, recorded by the build, and a short digest of the
    [Steno_rt] interface it carries, as a final [-rt<hex>] field).  The persistent cache namespaces entries by this
    string so artifacts from an incompatible toolchain or runtime unit
    miss instead of reaching [Dynlink]. *)

val compile : source:string -> compiled
(** {!compile_result} without a timeout, raising {!Compilation_failed}
    with the error message instead of returning [Error]. *)

val disabled : bool ref
(** Test hook: when set, {!is_available} is false and every compilation
    returns [Error Unavailable], simulating a host with no compiler. *)

val keep_artifacts : bool ref
(** When false (default), the temporary [.ml]/[.cmx]/[.cmxs] files are
    deleted after loading; set to true to inspect generated code on
    disk. *)

val workdir : unit -> string
(** The per-process scratch directory that plugins are built in. *)
