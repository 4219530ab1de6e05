type id = Ocaml | C | Both

exception Divergence of { backend_a : id; backend_b : id; detail : string }

let to_string = function Ocaml -> "ocaml" | C -> "c" | Both -> "both"

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "ocaml" | "ml" -> Some Ocaml
  | "c" | "stub" -> Some C
  | "both" | "diff" -> Some Both
  | _ -> None

let all = [ Ocaml; C; Both ]

(* ---------- selection ---------- *)

let default_of_env () =
  match Sys.getenv_opt "QELECT_CANON_BACKEND" with
  | None -> Ocaml
  | Some s -> (
      match of_string s with
      | Some id -> id
      | None ->
          Printf.eprintf
            "qelect: ignoring invalid QELECT_CANON_BACKEND=%S (want \
             ocaml|c|both)\n%!"
            s;
          Ocaml)

let state = Atomic.make (default_of_env ())

let current () = Atomic.get state
let tag () = to_string (current ())

let select id = Atomic.set state id

let with_backend id f =
  let prev = current () in
  select id;
  Fun.protect ~finally:(fun () -> select prev) f

let divergence_message = function
  | Divergence { backend_a; backend_b; detail } ->
      Some
        (Printf.sprintf "canonical backends diverge (%s vs %s): %s"
           (to_string backend_a) (to_string backend_b) detail)
  | _ -> None
