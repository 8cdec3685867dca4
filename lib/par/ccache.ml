(* See ccache.mli. The canonical form is a plain text rendering of the
   routine under a layout-erasing renumbering: blocks in reverse post-order
   from the entry (unreachable blocks appended in original-id order, so the
   whole routine is covered and canonicalization stays conservative there),
   values densely renumbered in that traversal, φ arguments sorted by their
   canonical carrying edge. Everything semantically visible — operators,
   successor order (Branch true/false, Switch case order), parameter count,
   routine name, the caller's fingerprint — is rendered verbatim, so equal
   canonical forms really are the same compilation problem. The canonical
   form is itself the key: the table's string equality is the
   verify-on-hit, so no structural hash can collide into a wrong answer. *)

type key = string

(* ------------------------------------------------------------------ *)
(* Canonicalization. *)

let canonical_form ?(fingerprint = "") (f : Ir.Func.t) =
  let open Ir.Func in
  let rpo = Analysis.Rpo.compute (Analysis.Graph.of_func f) in
  let nb = num_blocks f in
  (* canonical block order: RPO, then unreachable blocks by original id *)
  let order = Array.make nb (-1) in
  let k = ref 0 in
  Array.iter
    (fun b ->
      order.(!k) <- b;
      incr k)
    rpo.order;
  for b = 0 to nb - 1 do
    if rpo.number.(b) < 0 then begin
      order.(!k) <- b;
      incr k
    end
  done;
  let blk_canon = Array.make nb (-1) in
  Array.iteri (fun ci b -> blk_canon.(b) <- ci) order;
  (* dense value renumbering in canonical traversal order *)
  let val_canon = Array.make (num_instrs f) (-1) in
  let next = ref 0 in
  Array.iter
    (fun b ->
      Array.iter
        (fun i ->
          if defines_value (instr f i) then begin
            val_canon.(i) <- !next;
            incr next
          end)
        (block f b).instrs)
    order;
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "pgvn-key/1\n";
  pr "name=%s nparams=%d fp=%d:%s\n" f.name f.nparams (String.length fingerprint) fingerprint;
  let v id = Printf.sprintf "v%d" val_canon.(id) in
  Array.iter
    (fun b ->
      let blk = block f b in
      pr "b%d:\n" blk_canon.(b);
      Array.iter
        (fun i ->
          (match instr f i with
          | Const c -> pr "  %s = const %d" (v i) c
          | Param p -> pr "  %s = param %d" (v i) p
          | Unop (op, a) -> pr "  %s = %s %s" (v i) (Ir.Types.string_of_unop op) (v a)
          | Binop (op, a, c) ->
              pr "  %s = %s %s %s" (v i) (Ir.Types.string_of_binop op) (v a) (v c)
          | Cmp (op, a, c) -> pr "  %s = %s %s %s" (v i) (Ir.Types.string_of_cmp op) (v a) (v c)
          | Opaque (tag, args) ->
              pr "  %s = opaque %d(" (v i) tag;
              Array.iteri (fun j a -> pr "%s%s" (if j > 0 then "," else "") (v a)) args;
              pr ")"
          | Phi args ->
              (* sort φ arguments by canonical carrying edge: the incoming
                 edge's source block under the canonical numbering, tie-broken
                 by its position in that source's successor list *)
              let keyed =
                Array.mapi
                  (fun j a ->
                    let e = edge f blk.preds.(j) in
                    ((blk_canon.(e.src), e.src_ix), a))
                  args
              in
              Array.sort compare keyed;
              pr "  %s = phi [" (v i);
              Array.iteri
                (fun j ((src, ix), a) ->
                  pr "%sb%d.%d:%s" (if j > 0 then ", " else "") src ix (v a))
                keyed;
              pr "]"
          | Jump ->
              let e = edge f blk.succs.(0) in
              pr "  jump b%d" blk_canon.(e.dst)
          | Branch c ->
              let et = edge f blk.succs.(0) and ef = edge f blk.succs.(1) in
              pr "  branch %s b%d b%d" (v c) blk_canon.(et.dst) blk_canon.(ef.dst)
          | Switch (c, cases) ->
              pr "  switch %s [" (v c);
              Array.iteri
                (fun j case ->
                  let e = edge f blk.succs.(j) in
                  pr "%s%d:b%d" (if j > 0 then ", " else "") case blk_canon.(e.dst))
                cases;
              let d = edge f blk.succs.(Array.length blk.succs - 1) in
              pr "] b%d" blk_canon.(d.dst)
          | Return c -> pr "  return %s" (v c));
          pr "\n")
        blk.instrs)
    order;
  Buffer.contents buf

let key_of = canonical_form

(* ------------------------------------------------------------------ *)
(* In-memory tier. Every resident key sits in [fifo] exactly once: an
   overwrite keeps its slot, and eviction pops the oldest slot and removes
   that key. *)

type t = {
  lock : Mutex.t;
  table : (key, string) Hashtbl.t;
  fifo : key Queue.t; (* insertion order, for eviction *)
  capacity : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { entries : int; hits : int; misses : int; evictions : int }

let create ?(capacity = 4096) () =
  {
    lock = Mutex.create ();
    table = Hashtbl.create 256;
    fifo = Queue.create ();
    capacity = max 1 capacity;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let count obs name = Obs.add_o obs name 1

let find ?obs t key =
  let r =
    Mutex.protect t.lock @@ fun () ->
    let r = Hashtbl.find_opt t.table key in
    (match r with Some _ -> t.hits <- t.hits + 1 | None -> t.misses <- t.misses + 1);
    r
  in
  count obs (match r with Some _ -> "ccache.hits" | None -> "ccache.misses");
  r

(* One add inserts at most one key, so it evicts at most one. *)
let add ?obs t key value =
  let evicted =
    Mutex.protect t.lock @@ fun () ->
    let before = Hashtbl.length t.table in
    Hashtbl.replace t.table key value;
    if Hashtbl.length t.table > before then Queue.push key t.fifo;
    Hashtbl.length t.table > t.capacity
    && begin
         Hashtbl.remove t.table (Queue.pop t.fifo);
         t.evictions <- t.evictions + 1;
         true
       end
  in
  if evicted then count obs "ccache.evictions"

let stats t =
  Mutex.protect t.lock @@ fun () ->
  { entries = Hashtbl.length t.table; hits = t.hits; misses = t.misses; evictions = t.evictions }

(* ------------------------------------------------------------------ *)
(* Persisted tier. Format (all counts in decimal ASCII):

     pgvn-ccache/1\n
     <n>\n
     <hash> <canon-bytes> <value-bytes>\n
     <canon><value>\n            (repeated n times)

   <hash> is the 63-bit FNV-1a of <canon>, kept as the file's integrity
   check. Loads are corruption-tolerant by contract: any read failure, bad
   count, hash mismatch, version mismatch or short file yields a cold
   cache. Entries are written oldest-first so a reloaded cache evicts in
   the same order. *)

let format_version = "pgvn-ccache/1"

(* 64-bit FNV-1a folded to OCaml's nonnegative int range. Native ints wrap
   modulo 2^63, and xor and multiply never carry into lower bits, so the
   low bits the fold keeps are the 64-bit hash's own. *)
let fnv1a s =
  let h = ref 0x4bf29ce484222325 (* the offset basis, top bit dropped *) in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001b3) s;
  !h land max_int

let save t path =
  (* snapshot under the lock, write outside it *)
  let entries =
    Mutex.protect t.lock @@ fun () ->
    List.rev (Queue.fold (fun acc k -> (k, Hashtbl.find t.table k) :: acc) [] t.fifo)
  in
  let tmp = path ^ ".tmp" in
  try
    let oc = open_out_bin tmp in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
        Printf.fprintf oc "%s\n%d\n" format_version (List.length entries);
        List.iter
          (fun (canon, value) ->
            Printf.fprintf oc "%d %d %d\n%s%s\n" (fnv1a canon) (String.length canon)
              (String.length value) canon value)
          entries);
    Sys.rename tmp path
  with Sys_error _ -> (try Sys.remove tmp with Sys_error _ -> ())

exception Corrupt

let load ?capacity path =
  let t = create ?capacity () in
  (try
     let ic = open_in_bin path in
     Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
         if input_line ic <> format_version then raise Corrupt;
         let n =
           match int_of_string_opt (input_line ic) with
           | Some n when n >= 0 -> n
           | _ -> raise Corrupt
         in
         for _ = 1 to n do
           let h, cl, vl =
             match String.split_on_char ' ' (input_line ic) with
             | [ a; b; c ] -> (
                 match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c) with
                 | Some h, Some cl, Some vl when h >= 0 && cl >= 0 && vl >= 0 -> (h, cl, vl)
                 | _ -> raise Corrupt)
             | _ -> raise Corrupt
           in
           let canon = really_input_string ic cl in
           let value = really_input_string ic vl in
           if input_char ic <> '\n' || h <> fnv1a canon then raise Corrupt;
           add t canon value
         done)
   with Corrupt | End_of_file | Sys_error _ | Failure _ ->
     (* cold cache on any corruption: drop whatever partially loaded *)
     Hashtbl.reset t.table;
     Queue.clear t.fifo;
     t.evictions <- 0);
  t
