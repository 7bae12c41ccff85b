(** Runtime native compilation and loading of generated query code
    (section 3.3 of the paper).

    The paper invokes the C# compiler on the generated class, loads the
    resulting DLL, and patches captured variables in via reflection; this
    module invokes [ocamlopt -shared] on the generated module, loads the
    [.cmxs] with [Dynlink], and passes captured values through an
    [Obj.t array] environment.

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

    The compiler is found once, by reading [ocamlopt.opt -config] (or
    [ocamlopt -config]); that one read gives availability, the version
    for {!fingerprint}, and the link method.  Each plugin build is then
    one process tree started from an argv list, with no shell:
    [ocamlopt -shared] runs [as] twice (the module and its startup
    code), then the linker.  On ELF/Linux that is [ld] itself, with the
    output flags [gcc -shared] would give it
    ([--build-id --eh-frame-hdr --hash-style=gnu]) but without gcc's
    crt objects and libraries, which a plugin does not need; other
    systems keep [ocamlopt]'s own link command.  The compiler's output
    comes back on a pipe, so no log file is written.

    Compilation has a deliberate, measurable one-off cost (tens of
    milliseconds; section 7.1 reports 69 ms for the C# pipeline); use
    {!timings} to account for it, and cache {!compiled} values across
    invocations. *)

exception Compilation_failed of string

type timings = {
  write_ms : float;  (** writing the source file *)
  compile_ms : float;  (** [ocamlopt -shared] *)
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
  | Unavailable  (** No native compiler on PATH, or native [Dynlink]
                     unsupported, or {!disabled} set. *)
  | Timeout of { timeout_ms : int }
      (** The compiler process exceeded its deadline and was killed. *)
  | Compile_error of string
      (** Nonzero compiler exit, carrying its output; or the source
          could not be written or the compiler not started (a missing
          workdir, a full disk, a compiler gone since the probe). *)
  | Load_error of string  (** [Dynlink] failure or a plugin that never
                              performed the handshake. *)

val error_message : error -> string

val is_available : unit -> bool
(** Whether a native compiler ([ocamlopt.opt] or [ocamlopt] on PATH)
    answered [-config] and native dynlink is supported. *)

val compile_result :
  ?timeout_ms:int -> source:string -> unit -> (compiled, error) result
(** Write, compile and load a generated plugin.  [timeout_ms] bounds the
    external compiler process: past the deadline it is killed and
    [Error (Timeout _)] is returned, so a wedged or pathologically slow
    compiler can never stall a query.  Thread- and domain-safe: each call
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
(** Write the source and run [ocamlopt -shared], leaving every artifact
    on disk.  I/O and spawn failures come back as [Error (Compile_error _)],
    never as exceptions.  The caller must eventually call {!remove_artifact}. *)

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
    (OCaml version, word size, native-compiler version, and a short
    digest of the [Steno_rt] interface it carries, as a final
    [-rt<hex>] field).  The persistent cache namespaces entries by this
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
