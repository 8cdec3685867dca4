(* See pool.mli for the contract. Every batch is one flat array of
   independent tasks and no task spawns another, so a single shared cursor
   balances the load as well as per-worker deques with stealing would: a
   worker that finishes early simply claims the next unclaimed index. Idle
   workers block on [posted] rather than spin, so an oversubscribed host
   (more domains than cores) loses nothing to polling. *)

type batch = {
  size : int;
  run : int -> unit; (* runs task [i] and records its result or exception *)
  next : int Atomic.t; (* the shared cursor: the next unclaimed index *)
  finished : int Atomic.t; (* tasks run to completion *)
}

(* The empty batch a pool holds between [map]s, so a finished batch's
   closure (its inputs and results) is not kept alive until the next one. *)
let idle = { size = 0; run = ignore; next = Atomic.make 0; finished = Atomic.make 0 }

type t = {
  domains : int;
  lock : Mutex.t; (* guards [current], [generation] and [quit] *)
  posted : Condition.t; (* a batch was posted, or [quit] was set *)
  drained : Condition.t; (* some batch's last task finished *)
  mutable current : batch;
  mutable generation : int; (* bumped once per batch *)
  mutable quit : bool;
  mutable handles : unit Domain.t list; (* the [domains - 1] spawned workers *)
  mutable alive : bool;
}

let size t = t.domains

(* Claim and run indices until the cursor passes the end. The [finished]
   increment publishes the task's result slot to the caller (Atomic gives
   the happens-before edge); whoever finishes the last task wakes it. *)
let work t b =
  let rec claim () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.size then begin
      b.run i;
      if Atomic.fetch_and_add b.finished 1 = b.size - 1 then
        Mutex.protect t.lock (fun () -> Condition.broadcast t.drained);
      claim ()
    end
  in
  claim ()

(* A worker reads the batch under the lock, so one that wakes late simply
   sees the newest batch, or [idle] once that batch has drained; a finished
   batch's cursor is past its end, so nothing of it is ever run twice. *)
let rec worker t seen =
  Mutex.lock t.lock;
  while (not t.quit) && t.generation = seen do
    Condition.wait t.posted t.lock
  done;
  let quit = t.quit and gen = t.generation and b = t.current in
  Mutex.unlock t.lock;
  if not quit then begin
    work t b;
    worker t gen
  end

let create ?domains () =
  let domains =
    match domains with
    | Some n when n < 1 -> invalid_arg "Par.Pool.create: domains must be >= 1"
    | Some n -> n
    | None -> max 1 (Domain.recommended_domain_count ())
  in
  let t =
    {
      domains;
      lock = Mutex.create ();
      posted = Condition.create ();
      drained = Condition.create ();
      current = idle;
      generation = 0;
      quit = false;
      handles = [];
      alive = true;
    }
  in
  t.handles <- List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker t 0));
  t

let shutdown t =
  if t.alive then begin
    t.alive <- false;
    Mutex.protect t.lock (fun () ->
        t.quit <- true;
        Condition.broadcast t.posted);
    List.iter Domain.join t.handles;
    t.handles <- []
  end

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map t f arr =
  if not t.alive then invalid_arg "Par.Pool.map: pool is shut down";
  let n = Array.length arr in
  if n = 0 then [||]
  else if t.domains = 1 then Array.map f arr (* sequential fallback *)
  else begin
    let results = Array.make n (Error Exit) in
    let run i = results.(i) <- (match f arr.(i) with v -> Ok v | exception e -> Error e) in
    let b = { size = n; run; next = Atomic.make 0; finished = Atomic.make 0 } in
    Mutex.protect t.lock (fun () ->
        t.current <- b;
        t.generation <- t.generation + 1;
        Condition.broadcast t.posted);
    work t b;
    Mutex.protect t.lock (fun () ->
        while Atomic.get b.finished < n do
          Condition.wait t.drained t.lock
        done;
        t.current <- idle);
    (* Every slot is written; [Array.map] scans left to right, so the
       leftmost failure is the one re-raised. *)
    Array.map (function Ok v -> v | Error e -> raise e) results
  end
