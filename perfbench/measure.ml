(* Clocks, order statistics and process probes shared by the workloads. *)

let now_ns () = Monotonic_clock.now ()

let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

let s_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9

(* Linear-interpolation quantile (the "type 7" estimator) of an unsorted
   sample; [nan] on an empty one. *)
let quantile xs q =
  let len = Array.length xs in
  if len = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let pos = q *. float_of_int (len - 1) in
    let lo = int_of_float pos in
    let hi = min (len - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

let median xs = quantile xs 0.5

let mean xs =
  let len = Array.length xs in
  if len = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int len

let sum xs = Array.fold_left ( +. ) 0. xs

(* Count of samples strictly above the [q] quantile. *)
let beyond xs q =
  let cut = quantile xs q in
  Array.fold_left (fun acc x -> if x > cut then acc + 1 else acc) 0 xs

(* [VmHWM] (peak resident set) of a process, in MiB, from procfs. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  let ic = open_in path in
  let rec scan () =
    match input_line ic with
    | line ->
      if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
      else scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

type gc_mark = { minor : float; major : int }

let gc_mark () =
  { minor = Gc.minor_words (); major = (Gc.quick_stat ()).Gc.major_collections }

(* Minor words and major collections since [m]. *)
let gc_since m =
  let now = gc_mark () in
  (now.minor -. m.minor, now.major - m.major)

(* Set-up runs [reps] times; the median duration is reported and the last
   result kept, so work moved into set-up shows without one slow start
   deciding the figure. *)
let repeated_setup ~reps setup =
  let times = Array.make reps 0. in
  let last = ref None in
  for i = 0 to reps - 1 do
    (match !last with Some (_, release) -> release () | None -> ());
    let t0 = now_ns () in
    let v = setup () in
    times.(i) <- s_between t0 (now_ns ());
    last := Some v
  done;
  match !last with
  | Some (v, release) -> (v, release, median times)
  | None -> invalid_arg "repeated_setup: reps must be positive"
