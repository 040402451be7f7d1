(* Communication-model selector: unicast clique vs broadcast congested
   clique (FV22, arXiv:2205.12059). The charged pipelines take the model
   as a value; transports declare their width rule via [Transport.S.unicast].
   Selection precedence mirrors the other runtime knobs (CC_SHARDS,
   CC_DOMAINS): forced override first, then the environment. *)

type t = Unicast | Broadcast

let env_var = "CC_MODEL"

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "broadcast" | "bcast" -> Some Broadcast
  | "unicast" | "clique" -> Some Unicast
  | _ -> None

let forced : t option ref = ref None
let set_default m = forced := m

let default () =
  match !forced with
  | Some m -> m
  | None -> (
      match Sys.getenv_opt env_var with
      | None -> Unicast
      | Some s -> ( match of_string s with Some m -> m | None -> Unicast))

let name = function Unicast -> "unicast" | Broadcast -> "broadcast"
