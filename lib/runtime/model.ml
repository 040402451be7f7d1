(* Communication-model selector: unicast clique vs broadcast congested
   clique (FV22, arXiv:2205.12059). The charged pipelines take the model
   as a value; transports declare their width rule via [Transport.S.unicast].
   The run's default is [Config.t.model] ([CC_MODEL]). *)

type t = Unicast | Broadcast

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "broadcast" | "bcast" -> Some Broadcast
  | "unicast" | "clique" -> Some Unicast
  | _ -> None

let name = function Unicast -> "unicast" | Broadcast -> "broadcast"
