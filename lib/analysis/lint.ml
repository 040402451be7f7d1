type finding = { file : string; line : int; rule : Rule.id; message : string }

let compare_findings a b =
  compare (a.file, a.line, Rule.to_string a.rule) (b.file, b.line, Rule.to_string b.rule)

(* ------------------------------------------------- path classification *)

let segments path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "" && s <> ".")

let under dir path =
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | _ -> []
  in
  List.mem ("lib", dir) (pairs (segments path))

let charged_layers =
  [ "sparsify"; "laplacian"; "flow"; "euler"; "rounding"; "expander" ]

let is_charged path = List.exists (fun d -> under d path) charged_layers

(* The directories allowed to touch transports directly: the kernels
   themselves, the runtime that meters them, and the harness trees —
   tests and benchmarks exercise Sim/Congest primitives on purpose, and
   became lintable when the CI gate widened to [lib bin bench test]. *)
let harness path =
  match segments path with
  | ("test" | "bench") :: _ -> true
  | _ -> false

let transport_privileged path =
  under "runtime" path || under "clique" path || harness path

(* The only code allowed to issue raw socket syscalls: the wire layer
   itself and the socket transport built directly on it. Everything else
   must go through Wire.Link so framing, checksums and the byte counters
   cannot be bypassed. *)
let wire_privileged path =
  under "wire" path
  || (under "clique" path && Filename.basename path = "socket.ml")

(* The only lib code allowed to name Shard_down: the supervisor that
   raises and recovers from it (the socket coordinator and the fault
   drivers) and its definition site. Charged layers must let it propagate
   (L13) — recovery without re-certification is not recovery. Harness
   trees (test/, bench/, bin/) assert on it freely. *)
let supervisor_privileged path =
  under "fault" path
  || (under "clique" path
     && List.mem (Filename.basename path) [ "socket.ml"; "socket.mli" ])
  || (under "runtime" path
     && List.mem (Filename.basename path) [ "shard.ml"; "shard.mli" ])

let is_lib_module path =
  match segments path with "lib" :: _ :: _ -> true | _ -> false

(* ----------------------------------------------------------- the rules *)

(* What a rule looks for in a reference: a module anywhere in its module
   path ([Random] in [Stdlib.Random.int], or in [open Random]), an item
   under its immediate qualifier ([Sim.exchange] in [Clique.Sim.exchange]),
   or an item by name alone ([Shard_down], however qualified). *)
type pattern = Module of string | Item of string * string | Name of string

let matches ~modules ~item = function
  | Module m -> List.mem m modules
  | Item (m, x) -> (
    item = Some x && match List.rev modules with q :: _ -> q = m | [] -> false)
  | Name x -> item = Some x

type check = {
  rule : Rule.id;
  applies : string -> bool;  (* on the file path *)
  patterns : pattern list;
  why : string;  (* appended to the quoted reference *)
}

let items m names = List.map (fun x -> Item (m, x)) names

(* Raw socket syscalls (L9). [Unix.select] is deliberately absent: waiting
   on descriptors does not move bytes, and drivers may multiplex. *)
let socket_syscalls =
  [
    "socket"; "socketpair"; "connect"; "accept"; "bind"; "listen"; "read";
    "write"; "single_write";
  ]

let checks =
  [
    {
      rule = Rule.L1;
      applies = is_charged;
      patterns = [ Module "Random" ];
      why = "in charged layer: the seeded Graph.Prng is the only sanctioned \
             entropy";
    };
    {
      rule = Rule.L2;
      applies = is_charged;
      patterns = [ Module "Unix"; Item ("Sys", "time") ];
      why = "in charged layer: rounds, not wall-clock, are the cost measure";
    };
    {
      rule = Rule.L3;
      applies = (fun f -> not (transport_privileged f));
      patterns =
        List.concat_map
          (fun m -> items m [ "exchange"; "route"; "broadcast"; "charge" ])
          [ "Sim"; "Congest" ];
      why = "is a direct transport call that bypasses the Runtime ledger";
    };
    {
      rule = Rule.L4;
      applies = (fun _ -> true);
      patterns = [ Item ("Obj", "magic") ];
      why = "is forbidden";
    };
    (* Recovery belongs to the driver above the algorithms: a charged layer
       that catches Fault_detected or re-runs itself through Recover.run is
       making resilience decisions the ledger can no longer attribute. *)
    {
      rule = Rule.L7;
      applies = is_charged;
      patterns = [ Name "Fault_detected"; Item ("Recover", "run") ];
      why = "in charged layer: recovery decisions belong to the driver \
             (Fault.Recover), not the algorithms";
    };
    {
      rule = Rule.L9;
      applies = (fun f -> not (wire_privileged f));
      patterns = items "Unix" socket_syscalls;
      why = "is a raw socket call outside the wire layer: use Wire.Link so \
             framing and byte accounting apply";
    };
    {
      rule = Rule.L13;
      applies = (fun f -> is_lib_module f && not (supervisor_privileged f));
      patterns = [ Name "Shard_down" ];
      why = "outside the supervisor layer: let it propagate — only \
             lib/clique/socket.ml and lib/fault/ may handle a dead worker";
    };
  ]

(* L5: an unguarded [_] case of a [try ... with] or a [| exception _] arm,
   wherever it sits — any line, any arm. *)
let catch_all_lines (e : Parsetree.expression) =
  let wildcard (c : Parsetree.case) p =
    match p.Parsetree.ppat_desc with
    | Ppat_any when c.pc_guard = None -> [ Ast.line_of_loc p.ppat_loc ]
    | _ -> []
  in
  match e.pexp_desc with
  | Pexp_try (_, cases) -> List.concat_map (fun c -> wildcard c c.pc_lhs) cases
  | Pexp_match (_, cases) ->
    List.concat_map
      (fun (c : Parsetree.case) ->
        match c.pc_lhs.ppat_desc with
        | Ppat_exception p -> wildcard c p
        | _ -> [])
      cases
  | _ -> []

let reference_findings ~file ~expand tree =
  let checks = List.filter (fun c -> c.applies file) checks in
  let found = ref [] in
  let add rule line message =
    found := { file; line; rule; message } :: !found
  in
  let on_reference ~modules ~item ~line =
    let modules = expand modules in
    List.iter
      (fun c ->
        if List.exists (matches ~modules ~item) c.patterns then
          add c.rule line
            (Printf.sprintf "'%s' %s"
               (String.concat "." (modules @ Option.to_list item))
               c.why))
      checks
  in
  let it = Ast.reference_iterator on_reference in
  let expr self e =
    List.iter
      (fun line ->
        add Rule.L5 line
          "catch-all exception handler '_' can swallow model violations; \
           match specific exceptions")
      (catch_all_lines e);
    it.expr self e
  in
  let it = { it with expr } in
  (match tree with
  | Ast.Impl s -> it.structure it s
  | Ast.Intf s -> it.signature it s);
  !found

(* ------------------------------------------------------------------ L6 *)

let missing_mlis paths =
  let set = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace set p ()) paths;
  List.filter_map
    (fun p ->
      let mli = p ^ "i" in
      if
        Filename.check_suffix p ".ml"
        && is_lib_module p
        && not (Hashtbl.mem set mli || Sys.file_exists mli)
      then
        Some
          {
            file = p;
            line = 1;
            rule = Rule.L6;
            message = "lib module has no interface; add a sibling .mli";
          }
      else None)
    paths
  |> List.sort compare_findings
