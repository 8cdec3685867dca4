(* The three workloads' request streams, each a pure function of the seed.
   A request is the mini-C text of one or more routines; the server sees
   nothing else. See README.md for why each workload exists. *)

module Ast = Ir.Ast

type workload = Suite_serve | Chain_ladder | Certified_edit

let workloads = [ Suite_serve; Chain_ladder; Certified_edit ]

let workload_name = function
  | Suite_serve -> "suite-serve"
  | Chain_ladder -> "chain-ladder"
  | Certified_edit -> "certified-edit"

let workload_of_name s = List.find_opt (fun w -> workload_name w = s) workloads

(* Server flags after [--serve]; [flags] appends the [--run] vector. *)
let mode_flags = function
  | Suite_serve | Chain_ladder -> []
  | Certified_edit -> [ "--gcm"; "--validate=all"; "--check" ]

(* Domains of the traced run and of the parallel determinism check. The
   timed passes run one domain: on a shared two-core host the second
   domain's speed-up swings with the neighbours' load (254-545 routines/s
   between runs of the same stream), wider than any bound. *)
let parallel_jobs = function Suite_serve | Chain_ladder -> 1 | Certified_edit -> 2

(* The [--run] vector: the boundary values 0, -1 and min_int in a seeded
   order on the first three parameters (every routine has at least three),
   two small seeded values after them. *)
let run_args seed =
  let rng = Util.Prng.create ((seed * 31) + 7) in
  let b = [| 0; -1; min_int |] in
  for i = 2 downto 1 do
    let j = Util.Prng.int rng (i + 1) in
    let t = b.(i) in
    b.(i) <- b.(j);
    b.(j) <- t
  done;
  let small () = Util.Prng.range rng 2 40 * if Util.Prng.bool rng then 1 else -1 in
  Array.append b [| small (); small () |]

let flags ~jobs w seed =
  let args = Array.to_list (Array.map string_of_int (run_args seed)) in
  (Printf.sprintf "--jobs=%d" jobs :: mode_flags w) @ [ "--run=" ^ String.concat "," args ]

(* A routine is admitted only when the reference interpreter finishes it
   within a quarter of the interpreters' default fuel: the SSA interpreter
   counts steps differently, and neither side may time out. *)
let admission_fuel = 25_000

let admitted args r =
  match Ir.Cir.run ~fuel:admission_fuel (Ir.Lower.lower_routine r) args with
  | Ir.Interp.Timeout -> false
  | Ir.Interp.Ret _ | Ir.Interp.Trap -> true

(* ---- suite-style routines ---------------------------------------------- *)

(* Benchmark [b]'s [k]-th routine, with the profile Workload.Suite gives
   it; [wrap] makes it divide its result by a parameter, so the boundary
   arguments reach a trap. *)
let suite_routine rng (b : Workload.Suite.benchmark) k ~wrap ~name =
  let profile =
    {
      Workload.Generator.default_profile with
      stmt_budget = b.stmt_budget + (k mod 7 * 5);
      params = 3 + (k mod 3);
    }
  in
  let r = Workload.Generator.routine ~profile ~seed:((b.seed * 10_000) + k) ~name () in
  if not wrap then r
  else
    let p = Ast.Evar (Util.Prng.choose rng (Array.of_list r.params)) in
    let body =
      List.map
        (function Ast.Sreturn e -> Ast.Sreturn (Ast.Ebinop (Ir.Types.Div, e, p)) | s -> s)
        r.body
    in
    { r with body }

let benchmarks = Array.of_list Workload.Suite.benchmarks

let bench_ident (b : Workload.Suite.benchmark) =
  "b" ^ String.map (function '.' -> '_' | c -> c) b.name

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Util.Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [count] distinct admitted suite routines in a seeded order. The draw is
   stratified so that only the generator seeds change with the seed, not
   the mix: each benchmark contributes in proportion to its routine count
   (largest remainder), its routines cycle through the 21 size profiles
   Workload.Suite assigns by index, and every fourth routine of each
   benchmark is trap-wrapped. [name_of] names a routine. *)
let draw_suite rng args ~count ~name_of =
  let routines (b : Workload.Suite.benchmark) = b.routines in
  let total = Array.fold_left (fun a b -> a + routines b) 0 benchmarks in
  let share b = count * routines b in
  let counts = Array.map (fun b -> share b / total) benchmarks in
  let by_remainder =
    List.sort
      (fun i j -> compare (share benchmarks.(j) mod total, i) (share benchmarks.(i) mod total, j))
      (List.init (Array.length benchmarks) Fun.id)
  in
  let missing = count - Array.fold_left ( + ) 0 counts in
  List.iteri (fun r i -> if r < missing then counts.(i) <- counts.(i) + 1) by_remainder;
  let order = Array.concat (Array.to_list (Array.mapi (fun i c -> Array.make c i) counts)) in
  shuffle rng order;
  let seen = Hashtbl.create 64 and next = Array.make (Array.length benchmarks) 0 in
  Array.to_list order
  |> List.mapi (fun i bi ->
         let b = benchmarks.(bi) and j = next.(bi) in
         next.(bi) <- j + 1;
         let rec draw () =
           (* k < 10_000, and k mod 21 cycles with the benchmark's draws. *)
           let k = (21 * Util.Prng.int rng 476) + (j mod 21) in
           if Hashtbl.mem seen (bi, k) then draw ()
           else begin
             Hashtbl.add seen (bi, k) ();
             let r = suite_routine rng b k ~wrap:(j mod 4 = 3) ~name:(name_of i b k) in
             if admitted args r then r else draw ()
           end
         in
         draw ())

(* ---- the workloads ------------------------------------------------------ *)

let suite_routines = 1000

let suite_serve seed =
  let rng = Util.Prng.create ((seed * 7919) + 1) in
  let args = run_args seed in
  draw_suite rng args ~count:suite_routines ~name_of:(fun _ b k ->
      Printf.sprintf "%s_r%04d" (bench_ident b) k)
  |> List.map (fun r -> [ r ])

(* Statement-count strata of the chain ladder, and routines per shape in
   each stratum. *)
let strata = List.init 16 (fun i -> int_of_float (1000. *. (10. ** (-.float_of_int i /. 15.))))
let per_stratum = 1

let chain_ladder seed =
  let rng = Util.Prng.create ((seed * 7919) + 2) in
  let args = run_args seed in
  let mk stmts shape rep =
    let rec go attempt =
      let name =
        Printf.sprintf "%s_n%d_%d" (Shapes.name shape) stmts ((rep * 16) + attempt)
      in
      let r = Shapes.routine rng shape ~stmts ~name in
      if admitted args r then r else go (attempt + 1)
    in
    go 0
  in
  let stratum stmts =
    List.concat_map (fun sh -> List.init per_stratum (mk stmts sh)) Shapes.all
  in
  let largest, rest = (List.hd strata, List.tl strata) in
  let rest = Array.of_list (List.concat_map stratum rest) in
  shuffle rng rest;
  List.map (fun r -> [ r ]) (stratum largest @ Array.to_list rest)

(* Files of [edit_file_routines]; each is sent cold, then [edits] more
   times, each time with one seeded routine regenerated under the same
   name. Two edits per cold send keep the cold and the edited requests
   apart in the latency percentiles: with one, the median fell where the
   two kinds overlap and moved with every seed. *)
let edit_files = 100
let edit_file_routines = 8
let edits = 2

let certified_edit seed =
  let rng = Util.Prng.create ((seed * 7919) + 3) in
  let args = run_args seed in
  let per_file = edit_file_routines + edits in
  let pool =
    Array.of_list
      (draw_suite rng args ~count:(edit_files * per_file) ~name_of:(fun i _ _ ->
           Printf.sprintf "f%02d_r%d" (i / per_file)
             (min (i mod per_file) (edit_file_routines - 1))))
  in
  List.concat
    (List.init edit_files (fun f ->
         let base = f * per_file in
         let cold = List.init edit_file_routines (fun s -> pool.(base + s)) in
         let rec sends file e =
           if e = edits then []
           else
             let j = Util.Prng.int rng edit_file_routines in
             let fresh = pool.(base + edit_file_routines + e) in
             let edited =
               List.mapi (fun s r -> if s = j then { fresh with Ast.name = r.Ast.name } else r) file
             in
             edited :: sends edited (e + 1)
         in
         cold :: sends cold 0))

let requests w seed =
  match w with
  | Suite_serve -> suite_serve seed
  | Chain_ladder -> chain_ladder seed
  | Certified_edit -> certified_edit seed

let render routines = String.concat "" (List.map (Fmt.str "%a@." Ast.pp_routine) routines)
