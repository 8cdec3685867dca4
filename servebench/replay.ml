(* The traced replay: the requests of a run compiled in-process, calling
   each layer's public function in the order gvnopt's [compile_one] and
   [process_routine] (bin/gvnopt.ml, optimizing mode) call them, with a
   span around every call. The optimized text each routine renders is
   written out so run.py can hold it byte for byte against the binary's
   response to the same request: if the two ever differ, the replay no
   longer measures what the binary runs. *)

type opts = {
  jobs : int;
  gcm : bool;
  validate : Validate.mode option;
  check : bool;
  run_args : int array option;
}

let opts_of_flags flags =
  List.fold_left
    (fun o fl ->
      match String.split_on_char '=' fl with
      | [ "--jobs"; n ] -> { o with jobs = int_of_string n }
      | [ "--gcm" ] -> { o with gcm = true }
      | [ "--validate"; m ] -> { o with validate = Validate.mode_of_string m }
      | [ "--check" ] -> { o with check = true }
      | [ "--run"; v ] ->
          let args = List.map int_of_string (String.split_on_char ',' v) in
          { o with run_args = Some (Array.of_list args) }
      | _ -> failwith ("replay: unsupported server flag " ^ fl))
    { jobs = 1; gcm = false; validate = None; check = false; run_args = None }
    flags

let config = Cli.Cli_options.apply_toggles Cli.Cli_options.no_toggles Pgvn.Config.full
let pruning = Ssa.Construct.Semi_pruned

(* Per-routine counts, summed after each fan-out in input order. *)
type counts = {
  name : string;
  stmts : int;
  hit : bool;
  ssa_alloc : float;
  ssa_major : float;
  phis : int;
  blocks : int;
  stats : Pgvn.Run_stats.t option;
  removed : int;
  moved : int;
  spec_blocked : int;
  validate_runs : int;
}

let count_phis f =
  let n = ref 0 in
  Array.iter (fun i -> if Ir.Func.is_phi i then incr n) f.Ir.Func.instrs;
  !n

(* [process_routine] in optimizing mode, returning the rendered optimized
   section, whether the routine failed, and its counts. *)
let process ~o ~f c =
  let failed = ref false in
  let diagnose g =
    Spans.span ~active:o.check "check.verify" (fun () ->
        if o.check && Check.has_errors (Check.run_all ~lint:false g) then failed := true)
  in
  diagnose f;
  let st = Spans.span "pgvn.run" (fun () -> Pgvn.Driver.run config f) in
  (* The binary's per-routine summary line; its cost stays unattributed. *)
  ignore (Pgvn.Driver.summarize st);
  let rewritten, witnesses =
    Spans.span "transform.rewrite" (fun () -> Transform.Apply.rebuild_witnessed st f)
  in
  let dced = Spans.span "transform.dce" (fun () -> Transform.Dce.run rewritten) in
  let g = Spans.span "transform.simplify_cfg" (fun () -> Transform.Simplify_cfg.fixpoint dced) in
  let moved = ref 0 and spec = ref 0 and vruns = ref 0 in
  let g =
    Spans.span ~active:o.gcm "transform.gcm" (fun () ->
        if not o.gcm then g
        else
          let p = Transform.Gcm.plan g in
          let diags = Spans.span "check.schedule" (fun () -> Transform.Gcm.certify p) in
          if Check.errors diags <> [] then begin
            failed := true;
            g
          end
          else
            let s = Transform.Gcm.stats p in
            moved := s.Transform.Gcm.moved;
            spec := s.Transform.Gcm.speculation_blocked;
            let g' = if s.Transform.Gcm.moved = 0 then g else Transform.Gcm.apply p in
            let r =
              Spans.span "validate.certify" (fun () -> Validate.Equiv.check ~pass:"gcm" g g')
            in
            vruns := !vruns + r.Validate.Equiv.runs;
            if not (Validate.Equiv.ok r) then failed := true;
            g')
  in
  let text =
    Spans.span "ir.print" (fun () ->
        Fmt.str "--- optimized (%d -> %d instrs, %d -> %d blocks) ---@.%a@."
          (Ir.Func.num_instrs f) (Ir.Func.num_instrs g) (Ir.Func.num_blocks f)
          (Ir.Func.num_blocks g) Ir.Printer.pp g)
  in
  diagnose g;
  Spans.span ~active:(o.validate <> None) "validate.certify" (fun () ->
      match o.validate with
      | None -> ()
      | Some mode ->
          let p = Validate.certify ~mode ~pass:"gvn+cleanup" ~witnesses f g in
          (match p.Validate.Report.equiv with
          | Some r -> vruns := !vruns + r.Validate.Equiv.runs
          | None -> ());
          if Validate.Report.errors (Validate.Report.add Validate.Report.empty p) <> [] then
            failed := true);
  Spans.span ~active:(o.run_args <> None) "ir.interp" (fun () ->
      match o.run_args with
      | None -> ()
      | Some args ->
          let a = Ir.Interp.run f args and b = Ir.Interp.run g args in
          if not (Ir.Interp.equal_result a b) then failed := true);
  ( text,
    !failed,
    {
      c with
      stats = Some st.Pgvn.State.stats;
      removed = Ir.Func.num_instrs f - Ir.Func.num_instrs g;
      moved = !moved;
      spec_blocked = !spec;
      validate_runs = !vruns;
    } )

(* gvnopt folds a Marshal of its flag record into the key; this folds one
   of the same shape, so key cost and hit/miss behaviour match. *)
let fingerprint o = Marshal.to_string (config, pruning, o.gcm, o.validate, o.check, o.run_args) []

(* [compile_one]: lower, construct SSA, look the routine up in the
   content-addressed cache, and compile it on a miss. *)
let compile_one ~o ~cache (r : Ir.Ast.routine) =
  Spans.span "routine" @@ fun () ->
  let cir = Spans.span "ir.lower" (fun () -> Ir.Lower.lower_routine r) in
  let f, s =
    Spans.record "ssa.construct" (fun () -> Ssa.Construct.of_cir ~pruning cir)
  in
  let c =
    {
      name = r.Ir.Ast.name;
      stmts = Shapes.count_stmts r.Ir.Ast.body;
      hit = false;
      ssa_alloc = s.Spans.alloc;
      ssa_major = s.Spans.major;
      phis = count_phis f;
      blocks = Ir.Func.num_blocks f;
      stats = None;
      removed = 0;
      moved = 0;
      spec_blocked = 0;
      validate_runs = 0;
    }
  in
  let key =
    Spans.span "par.ccache.key" (fun () -> Par.Ccache.key_of ~fingerprint:(fingerprint o) f)
  in
  match Spans.span "par.ccache.lookup" (fun () -> Par.Ccache.find cache key) with
  | Some v -> (String.sub v 1 (String.length v - 1), { c with hit = true })
  | None ->
      let text, failed, c = process ~o ~f c in
      Spans.span "par.ccache.lookup" (fun () ->
          Par.Ccache.add cache key ((if failed then "1" else "0") ^ text));
      if failed then prerr_endline ("replay: routine " ^ c.name ^ " failed");
      (text, c)

let main ~requests ~flags ~spans ~optimized ~metrics =
  let o = opts_of_flags flags in
  let frames = Frames.read_all requests in
  let cache = Par.Ccache.create () in
  let all = ref [] in
  let texts = ref [] in
  let t0 = Unix.gettimeofday () in
  Par.Pool.with_pool ~domains:o.jobs (fun pool ->
      List.iter
        (fun src ->
          Spans.span "request" @@ fun () ->
          let routines = Spans.span "ir.parse" (fun () -> Ir.Parser.parse_program src) in
          let results =
            Spans.span "par.pool.map" (fun () ->
                let parent = Spans.current () in
                Par.Pool.map pool
                  (fun r -> Spans.with_parent parent (fun () -> compile_one ~o ~cache r))
                  (Array.of_list routines))
          in
          texts := String.concat "" (Array.to_list (Array.map fst results)) :: !texts;
          Array.iter (fun (_, c) -> all := c :: !all) results)
        frames);
  let wall = Unix.gettimeofday () -. t0 in
  Spans.write spans;
  Frames.write_all optimized (List.rev !texts);
  let all = List.rev !all in
  let sum f = List.fold_left (fun a c -> a + f c) 0 all in
  let sumf f = List.fold_left (fun a c -> a +. f c) 0. all in
  let st f = sum (fun c -> match c.stats with Some s -> f s | None -> 0) in
  let cs = Par.Ccache.stats cache in
  let oc = open_out_bin metrics in
  let kv = Printf.fprintf oc "%s\t%s\n" in
  kv "wall_s" (Printf.sprintf "%.6f" wall);
  kv "jobs" (string_of_int o.jobs);
  kv "routines" (string_of_int (List.length all));
  kv "ssa.construct.major_words" (Printf.sprintf "%.0f" (sumf (fun c -> c.ssa_major)));
  kv "ssa.construct.phis" (string_of_int (sum (fun c -> c.phis)));
  kv "ssa.construct.blocks" (string_of_int (sum (fun c -> c.blocks)));
  List.iter
    (fun (k, f) -> kv ("pgvn.run." ^ k) (string_of_int (st f)))
    Pgvn.Run_stats.
      [
        ("passes", fun s -> s.passes);
        ("instrs_processed", fun s -> s.instrs_processed);
        ("block_touches", fun s -> s.block_touches);
        ("instr_touches", fun s -> s.instr_touches);
        ("table_probes", fun s -> s.table_probes);
        ("table_hits", fun s -> s.table_hits);
      ];
  kv "transform.instrs_removed" (string_of_int (sum (fun c -> c.removed)));
  kv "transform.gcm.moved" (string_of_int (sum (fun c -> c.moved)));
  kv "transform.gcm.speculation_blocked" (string_of_int (sum (fun c -> c.spec_blocked)));
  kv "validate.certify.runs" (string_of_int (sum (fun c -> c.validate_runs)));
  kv "par.ccache.hits" (string_of_int cs.Par.Ccache.hits);
  kv "par.ccache.misses" (string_of_int cs.Par.Ccache.misses);
  (* One row per compiled routine, for the scaling fits. *)
  List.iter
    (fun c ->
      if not c.hit then
        kv ("routine." ^ c.name)
          (Printf.sprintf "%d %.0f %d" c.stmts c.ssa_alloc
             (match c.stats with Some s -> s.Pgvn.Run_stats.block_touches | None -> 0)))
    all;
  close_out oc
