(* The benchmark's in-process half, driven by run.py:

     sb gen --workload W --seed N --dir D
         write D/requests.bin (the framed request stream) and
         D/manifest.json (server flags, the --run vector, counts)
     sb ref --requests F --run A,B,... --out O
         the independent reference: every routine re-parsed from the exact
         request bytes, lowered, and run on Ir.Cir.run, never passing
         through SSA or the optimizer; one JSON line per request
     sb replay --requests F --flags "..." --spans S --optimized O --metrics M
         replay the requests in-process with a span around each layer call
         (see replay.ml) *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_list f xs = "[" ^ String.concat ", " (List.map f xs) ^ "]"

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let gen ~workload ~seed ~dir =
  let w =
    match Streams.workload_of_name workload with
    | Some w -> w
    | None -> failwith ("unknown workload " ^ workload)
  in
  let requests = Streams.requests w seed in
  Frames.write_all (Filename.concat dir "requests.bin") (List.map Streams.render requests);
  let manifest =
    Printf.sprintf
      "{\"workload\": %s, \"seed\": %d, \"flags\": %s, \"parallel_flags\": %s, \
       \"run_args\": %s, \"requests\": %d, \"routines\": %d, \"ocaml\": %s}\n"
      (json_string workload) seed
      (json_list json_string (Streams.flags ~jobs:1 w seed))
      (json_list json_string (Streams.flags ~jobs:(Streams.parallel_jobs w) w seed))
      (json_list string_of_int (Array.to_list (Streams.run_args seed)))
      (List.length requests)
      (List.fold_left (fun n rs -> n + List.length rs) 0 requests)
      (json_string Sys.ocaml_version)
  in
  write_file (Filename.concat dir "manifest.json") manifest

let parse_ints s = Array.of_list (List.map int_of_string (String.split_on_char ',' s))

let reference ~requests ~args ~out =
  let oc = open_out_bin out in
  List.iter
    (fun src ->
      let results =
        List.map
          (fun (r : Ir.Ast.routine) ->
            let res = Ir.Cir.run (Ir.Lower.lower_routine r) args in
            json_list json_string [ r.name; Fmt.str "%a" Ir.Interp.pp_result res ])
          (Ir.Parser.parse_program src)
      in
      output_string oc (json_list Fun.id results ^ "\n"))
    (Frames.read_all requests);
  close_out oc

let () =
  let argv = Array.to_list Sys.argv in
  let rec opts = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        (String.sub k 2 (String.length k - 2), v) :: opts rest
    | [] -> []
    | x :: _ -> failwith ("unexpected argument " ^ x)
  in
  let get o k = try List.assoc k o with Not_found -> failwith ("missing --" ^ k) in
  match argv with
  | _ :: "gen" :: rest ->
      let o = opts rest in
      gen ~workload:(get o "workload") ~seed:(int_of_string (get o "seed")) ~dir:(get o "dir")
  | _ :: "ref" :: rest ->
      let o = opts rest in
      reference ~requests:(get o "requests") ~args:(parse_ints (get o "run")) ~out:(get o "out")
  | _ :: "replay" :: rest ->
      let o = opts rest in
      Replay.main ~requests:(get o "requests")
        ~flags:(String.split_on_char ' ' (get o "flags"))
        ~spans:(get o "spans") ~optimized:(get o "optimized") ~metrics:(get o "metrics")
  | _ ->
      prerr_endline "usage: sb (gen|ref|replay) --key value ...";
      exit 2
