(** Bicolored instances [(G, p)]: a graph plus the placement of home-bases.

    Black nodes are home-bases, white nodes are initially empty — the
    paper's Section 2 convention (not to be confused with agent colors). *)

type t

val make : Graph.t -> black:int list -> t
(** @raise Invalid_argument on duplicates or out-of-range nodes, or if the
    black list is empty (an election needs at least one agent). *)

val graph : t -> Graph.t
val is_black : t -> int -> bool
val blacks : t -> int list
(** Home-bases in increasing node order. *)

val num_blacks : t -> int
val node_color : t -> int -> int
(** 1 for black, 0 for white — the node-color view used by the symmetry
    engine. *)

val complement : t -> t
(** Swap black and white (only valid if some node is white). Used in tests
    of color-preservation. *)

val key_digest : t -> int option
(** Cache-key digest slot, as {!Graph.key_digest}: filled once per value
    by the artifact cache, never read here. *)

val set_key_digest : t -> int -> unit

val pp : Format.formatter -> t -> unit
