val tag : unit -> string
(** Always ["c"], the production kernel; benchmark fingerprints read it. *)
