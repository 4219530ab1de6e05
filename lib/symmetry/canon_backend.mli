(** Canonicalization backend selection.

    The canonical-labeling kernel exists twice: the pure-OCaml
    reference in {!Canon} and a C reimplementation of the same
    refine+search algorithm ({!Canon_c}, bound in the style of
    [clock_stubs.c] and shaped like a bliss binding so an industrial
    kernel can slot in later). Both are faithful ports of one
    algorithm, so they agree not just on certificates and orbits but on
    every search statistic — which is what makes differential
    verification ([qelect selftest], the [Both] mode below) sharp.

    This module owns {e which} backend a [Canon.run] call uses. The
    selection is a process-wide atomic, defaulted from the
    [QELECT_CANON_BACKEND] environment variable ([ocaml], [c] or
    [both]) and settable from the CLI via [--canon-backend]. Dispatch
    itself lives in {!Canon.run}. {!Artifact_cache} scopes every entry
    by {!current}, so no artifact computed under one backend is ever
    served under another. *)

type id =
  | Ocaml  (** the pure-OCaml kernel — the reference *)
  | C  (** the C-stub kernel *)
  | Both
      (** run both kernels on every call, cross-check certificate and
          orbits, raise {!Divergence} on mismatch; returns the OCaml
          result. Telemetry is flushed by both runs, so [canon.*]
          counters double. *)

exception
  Divergence of { backend_a : id; backend_b : id; detail : string }
(** Raised by [Both]-mode dispatch when the kernels disagree — the
    differential harness turns this into a minimized counterexample. *)

val all : id list
val to_string : id -> string

val of_string : string -> id option
(** Case-insensitive; accepts [ocaml]/[ml], [c]/[stub], [both]/[diff]. *)

val current : unit -> id
(** The selected backend. Initialized from [QELECT_CANON_BACKEND]
    (invalid values warn on stderr and fall back to [Ocaml]). *)

val tag : unit -> string
(** [to_string (current ())]. *)

val select : id -> unit
(** Set the process-wide backend. Do not switch while pool domains are
    mid-sweep: the selection is global, not scoped per task. *)

val with_backend : id -> (unit -> 'a) -> 'a
(** [with_backend id f] runs [f] under [id] and restores the previous
    selection. *)

val divergence_message : exn -> string option
(** Render {!Divergence} for user-facing reports; [None] otherwise. *)
