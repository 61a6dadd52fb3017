(** A minimal JSON tree, printer and parser.

    The observability layer (metrics snapshots, [qct stats --json], the
    benchmark harness's [BENCH_PR1.json]) emits machine-readable JSON; this
    module keeps the repository zero-dependency by providing just enough of
    JSON to do that, plus a parser so tests and tooling can round-trip what
    was emitted.  Numbers are split into [Int] and [Float] because work
    counters must survive a round-trip exactly. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact, single-line rendering (valid JSON; strings are escaped,
    non-finite floats are rendered as [null]). *)

val to_string_pretty : t -> string
(** Two-space indented rendering, for files meant to be read by humans. *)

val float_exact : float -> string
(** The shortest of [Printf]'s [%g] and [%.17g] spellings that parses back
    to the same float: [%g] when it round-trips, [%.17g] otherwise.
    Non-finite values get [%g]'s spelling ([inf], [-inf], [nan]); the JSON
    printers render them as [null] instead. *)

val parse : string -> (t, string) result
(** Parse one JSON document (surrounding whitespace allowed).  Integers
    without [.], [e] or [E] parse as [Int]; everything else numeric parses
    as [Float].  Errors carry a character offset. *)

val member : string -> t -> t option
(** [member key json] is the value of [key] when [json] is an [Obj]. *)

val equal : t -> t -> bool
(** Structural equality; [Obj] fields are compared order-insensitively. *)
