(* The service's framing: a 4-byte big-endian byte count, then the bytes. *)

let write oc payload =
  let len = String.length payload in
  List.iter (fun s -> output_byte oc ((len lsr s) land 0xff)) [ 24; 16; 8; 0 ];
  output_string oc payload

let read_all path =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let rec go pos acc =
    if pos >= String.length data then List.rev acc
    else begin
      if pos + 4 > String.length data then failwith (path ^ ": truncated frame header");
      let b i = Char.code data.[pos + i] in
      let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
      if pos + 4 + len > String.length data then failwith (path ^ ": truncated frame");
      go (pos + 4 + len) (String.sub data (pos + 4) len :: acc)
    end
  in
  go 0 []

let write_all path payloads =
  let oc = open_out_bin path in
  List.iter (write oc) payloads;
  close_out oc
