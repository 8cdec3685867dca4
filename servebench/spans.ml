(* In-memory spans recorded around the calls the replay makes into each
   layer. A span carries its name, wall-clock start and end, its parent
   (the innermost open span of the same domain, or the span a pool task
   was fanned out from), the domain it ran on, and the words that domain
   allocated meanwhile ([Gc.counters] is per domain on OCaml 5). An
   inactive span marks a call site whose layer the flags switched off: it
   is timed, so that the skip is measured, but it is not a call. *)

type t = {
  id : int;
  parent : int;  (** -1 for a root *)
  domain : int;
  name : string;
  active : bool;
  t0 : float;
  t1 : float;
  alloc : float;  (** words allocated (minor + direct major) *)
  major : float;  (** words allocated directly in the major heap *)
}

let next_id = Atomic.make 0
let lock = Mutex.create ()
let finished : t list ref = ref []
let stack = Domain.DLS.new_key (fun () -> ref [])

let current () = match !(Domain.DLS.get stack) with p :: _ -> p | [] -> -1

(* Run [f] as if inside span [parent]: pool tasks use it to attach their
   spans to the fan-out span of the domain that called [Par.Pool.map]. *)
let with_parent parent f =
  let st = Domain.DLS.get stack in
  let saved = !st in
  st := [ parent ];
  Fun.protect ~finally:(fun () -> st := saved) f

let record ?(active = true) name f =
  let st = Domain.DLS.get stack in
  let id = Atomic.fetch_and_add next_id 1 in
  let parent = match !st with p :: _ -> p | [] -> -1 in
  st := id :: !st;
  let mi0, pr0, ma0 = Gc.counters () in
  let t0 = Unix.gettimeofday () in
  let close () =
    let t1 = Unix.gettimeofday () in
    let mi1, pr1, ma1 = Gc.counters () in
    st := List.tl !st;
    let direct = ma1 -. ma0 -. (pr1 -. pr0) in
    let s =
      {
        id;
        parent;
        domain = (Domain.self () :> int);
        name;
        active;
        t0;
        t1;
        alloc = mi1 -. mi0 +. direct;
        major = direct;
      }
    in
    Mutex.protect lock (fun () -> finished := s :: !finished);
    s
  in
  match f () with
  | x -> (x, close ())
  | exception e ->
      ignore (close ());
      raise e

let span ?active name f = fst (record ?active name f)

(* One tab-separated line per span, in start order. *)
let write path =
  let oc = open_out_bin path in
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%.9f\t%.9f\t%.0f\t%.0f\n" s.id s.parent s.domain
        s.name
        (if s.active then 1 else 0)
        s.t0 s.t1 s.alloc s.major)
    (List.sort (fun a b -> compare a.id b.id) !finished);
  close_out oc
