module On_sim = Runtime.Make (Sim)
module On_congest = Runtime.Make (Congest)
module On_bcast = Runtime.Make (Broadcast)
module Sim_programs = Programs.Make (On_sim)
module Congest_programs = Programs.Make (On_congest)
module Bcast_programs = Programs.Make (On_bcast)

type t = On_sim.t

let clique ?phase n = On_sim.create ?phase (Sim.create n)

let with_clique ?phase n f =
  let sim = Sim.create n in
  Fun.protect ~finally:(fun () -> Sim.close sim) (fun () ->
      f (On_sim.create ?phase sim))

let congest ?phase g = On_congest.create ?phase (Congest.create g)

let bcast ?phase n = On_bcast.create ?phase (Broadcast.create n)

let charge = On_sim.charge

let rounds = On_sim.rounds

let words = On_sim.words

let phases = On_sim.phases

let phase_rounds = On_sim.phase_rounds

let with_phase = On_sim.with_phase

let on_round = On_sim.on_round

let report = On_sim.report
