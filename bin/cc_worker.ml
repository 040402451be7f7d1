(* Remote shard worker launcher (DESIGN.md §14). Run on any host that can
   reach a coordinator started with CC_SHARD_ADDR and CC_SHARD_REMOTE:

     cc_worker tcp:host:port      # or host:port, or unix:/path
     CC_SHARD_ADDR=host:port cc_worker

   Dials the rendezvous, is assigned a reserved shard slot, and serves
   rounds until the session shuts down. Never returns. *)

let () =
  let addr =
    if Array.length Sys.argv > 1 then Some Sys.argv.(1)
    else (Runtime.Config.get ()).shard_addr
  in
  match addr with
  | Some a -> Clique.Socket.remote_worker a
  | None ->
    prerr_endline
      "usage: cc_worker <host:port>   (or set CC_SHARD_ADDR)";
    exit 2
