(* Host-speed reference.

   On a small shared host the speed of a core drifts by 20-50 % over
   minutes, as co-tenants come and go, and a run-to-run comparison of raw
   wall times then measures the neighbours.  Before and after every timed
   call the benchmark times one pass of a fixed reference loop and scales
   the call's times by [nominal_s / mean pass time], so they read as
   times on a host whose pass takes [nominal_s]; the raw values are
   printed next to them.

   One pass mixes the kinds of work the workloads do: integer mixing,
   dependent reads that miss the cache (over an 8 MiB Bigarray, outside
   the OCaml heap), short-lived minor-heap allocation, and a streaming
   read-modify-write over the same Bigarray. *)

let nominal_s = 0.040
let cells = 1 lsl 20

let table =
  lazy
    (let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout cells in
     for i = 0 to cells - 1 do
       Bigarray.Array1.set t i i
     done;
     (* Sattolo's shuffle: one random cycle through the table, so every
        read depends on the one before *)
     let rng = Random.State.make [| 42 |] in
     for i = cells - 1 downto 1 do
       let j = Random.State.int rng i in
       let tmp = Bigarray.Array1.get t i in
       Bigarray.Array1.set t i (Bigarray.Array1.get t j);
       Bigarray.Array1.set t j tmp
     done;
     t)

let pass () =
  let t = Lazy.force table in
  let j = ref 0 and x = ref 0 in
  for i = 1 to 50_000 do
    j := Bigarray.Array1.get t !j;
    for k = 1 to 100 do
      x := (!x lxor (k * 7919)) + (!x lsr 3) + i
    done
  done;
  (* lists of at most 256 pairs: everything dies young *)
  let l = ref [] and s = ref 0 in
  for i = 1 to 1_500_000 do
    l := (i, !s) :: (if i land 255 = 0 then (s := !s + List.length !l; []) else !l)
  done;
  (* each cell is written back unchanged, so the cycle stays a cycle *)
  for _ = 1 to 4 do
    for i = 0 to cells - 1 do
      let v = Bigarray.Array1.get t i in
      s := !s + v;
      Bigarray.Array1.set t i v
    done
  done;
  !x + !j + !s

(* Pass times, keyed by the order they were taken in. *)
let passes : (int, float) Hashtbl.t = Hashtbl.create 64

(* Times one pass and returns its index. *)
let mark () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (pass ()));
  let i = Hashtbl.length passes in
  Hashtbl.replace passes i (Unix.gettimeofday () -. t0);
  i

(* The factor that expresses a time measured between pass [i] and pass
   [i + 1] at nominal host speed: [nominal_s] over the mean of the two
   passes, so a drift during the measured interval shows on one side. *)
let scale_between i =
  let at j = Option.value ~default:(Hashtbl.find passes i) (Hashtbl.find_opt passes j) in
  nominal_s /. ((at i +. at (i + 1)) /. 2.)

let pass_times () = List.of_seq (Hashtbl.to_seq_values passes)
