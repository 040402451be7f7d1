(* The closed set of CC_* names, parsed once (DESIGN.md §16). Each entry
   of [fields] pairs a name with its value parser and its renderer, so
   [parse] and [to_env] cannot drift apart. *)

type bench_mode = Full | Reduced

type t = {
  domains : int;
  sanitize : bool;
  model : Model.t;
  shards : int;
  shard_policy : Shard.policy;
  shard_timeout : float;
  shard_addr : string option;
  shard_remote : int;
  shard_log : string option;
  shard_worker : string option;
  faults : string option;
  serve_addr : string;
  serve_jobs : int;
  serve_cache : int;
  serve_policy : string option;
  bench_mode : bench_mode;
  bench_out : string;
  force_socket : bool;
}

let default =
  {
    domains = 1;
    sanitize = false;
    model = Model.Unicast;
    shards = 1;
    shard_policy = Shard.Fail;
    shard_timeout = 30.0;
    shard_addr = None;
    shard_remote = 0;
    shard_log = None;
    shard_worker = None;
    faults = None;
    serve_addr = "unix:/tmp/cc-serve.sock";
    serve_jobs = 2;
    serve_cache = 32;
    serve_policy = None;
    bench_mode = Full;
    bench_out = ".";
    force_socket = false;
  }

let int_at_least lo v =
  match int_of_string_opt (String.trim v) with
  | Some x when x >= lo -> Ok x
  | _ -> Error (Printf.sprintf "expected an integer >= %d" lo)

let positive_seconds v =
  match float_of_string_opt (String.trim v) with
  | Some x when x > 0.0 -> Ok x
  | _ -> Error "expected a positive number of seconds"

let known what of_string v =
  match of_string v with Some x -> Ok x | None -> Error ("expected " ^ what)

let choice what options =
  known what (fun v ->
      List.assoc_opt (String.lowercase_ascii (String.trim v)) options)

let text v = Ok v

(* (name, store a non-empty value into the record, render the field;
   [None] = unset). *)
let field name read store show =
  (name, (fun v c -> Result.map (store c) (read v)), show)

let fields =
  [
    field "CC_DOMAINS" (int_at_least 1) (fun c x -> { c with domains = x })
      (fun c -> Some (string_of_int c.domains));
    field "CC_SANITIZE"
      (choice "1 or 0"
         [ ("1", true); ("true", true); ("yes", true); ("on", true);
           ("0", false); ("false", false); ("no", false); ("off", false) ])
      (fun c x -> { c with sanitize = x })
      (fun c -> Some (if c.sanitize then "1" else "0"));
    field "CC_MODEL" (known "unicast or broadcast" Model.of_string)
      (fun c x -> { c with model = x })
      (fun c -> Some (Model.name c.model));
    field "CC_SHARDS" (int_at_least 1) (fun c x -> { c with shards = x })
      (fun c -> Some (string_of_int c.shards));
    field "CC_SHARD_POLICY" (known "fail, respawn or drain" Shard.policy_of_string)
      (fun c x -> { c with shard_policy = x })
      (fun c -> Some (Shard.policy_to_string c.shard_policy));
    field "CC_SHARD_TIMEOUT" positive_seconds
      (fun c x -> { c with shard_timeout = x })
      (fun c -> Some (Printf.sprintf "%.17g" c.shard_timeout));
    field "CC_SHARD_ADDR" text (fun c x -> { c with shard_addr = Some x })
      (fun c -> c.shard_addr);
    field "CC_SHARD_REMOTE" (int_at_least 0)
      (fun c x -> { c with shard_remote = x })
      (fun c -> Some (string_of_int c.shard_remote));
    field "CC_SHARD_LOG" text (fun c x -> { c with shard_log = Some x })
      (fun c -> c.shard_log);
    field "CC_SHARD_WORKER" text (fun c x -> { c with shard_worker = Some x })
      (fun c -> c.shard_worker);
    field "CC_FAULTS" text (fun c x -> { c with faults = Some x })
      (fun c -> c.faults);
    field "CC_SERVE_ADDR" text (fun c x -> { c with serve_addr = x })
      (fun c -> Some c.serve_addr);
    field "CC_SERVE_JOBS" (int_at_least 1) (fun c x -> { c with serve_jobs = x })
      (fun c -> Some (string_of_int c.serve_jobs));
    field "CC_SERVE_CACHE" (int_at_least 1)
      (fun c x -> { c with serve_cache = x })
      (fun c -> Some (string_of_int c.serve_cache));
    field "CC_SERVE_POLICY" text (fun c x -> { c with serve_policy = Some x })
      (fun c -> c.serve_policy);
    field "CC_BENCH_MODE"
      (choice "full or reduced"
         [ ("full", Full); ("reduced", Reduced); ("ci", Reduced) ])
      (fun c x -> { c with bench_mode = x })
      (fun c -> Some (if c.bench_mode = Full then "full" else "reduced"));
    field "CC_BENCH_OUT" text (fun c x -> { c with bench_out = x })
      (fun c -> Some c.bench_out);
  ]

let names = List.map (fun (name, _, _) -> name) fields

let parse env =
  let step acc (name, value) =
    match acc with
    | Error _ -> acc
    | Ok c -> (
      if not (String.starts_with ~prefix:"CC_" name) then acc
      else
        match List.find_opt (fun (n, _, _) -> n = name) fields with
        | None ->
          Error
            (Printf.sprintf "%s: unknown variable (the known names are %s)"
               name (String.concat ", " names))
        | Some _ when value = "" -> acc
        | Some (_, store, _) ->
          Result.map_error
            (fun e -> Printf.sprintf "%s=%S: %s" name value e)
            (store value c))
  in
  List.fold_left step (Ok default) env

exception Invalid of string

let () =
  Printexc.register_printer (function
    | Invalid msg -> Some (Printf.sprintf "Runtime.Config.Invalid(%s)" msg)
    | _ -> None)

let split kv =
  match String.index_opt kv '=' with
  | Some i ->
    Some (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
  | None -> None

(* Parsed at module initialization, on the main domain, before any pool
   worker can call [get]. *)
let process =
  parse (List.filter_map split (Array.to_list (Unix.environment ())))

let override : t option Atomic.t = Atomic.make None

let get () =
  match Atomic.get override with
  | Some c -> c
  | None -> ( match process with Ok c -> c | Error msg -> raise (Invalid msg))

let with_ c f =
  let previous = Atomic.exchange override (Some c) in
  Fun.protect ~finally:(fun () -> Atomic.set override previous) f

let to_env c =
  List.filter_map
    (fun (name, _, show) -> Option.map (fun v -> (name, v)) (show c))
    fields

let to_json c =
  Metrics.Json.Assoc
    (List.map (fun (k, v) -> (k, Metrics.Json.String v)) (to_env c))
