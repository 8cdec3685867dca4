(* The chain-ladder shapes: routines built directly as mini-C syntax trees
   whose size is set by a statement count. Three of them are the shapes
   with quadratic SSA construction and GVN sweep cost (sequential if
   chains, nested ifs, nests of short counted loops); the fourth,
   straight-line pairwise-redundant code, is the linear control.

   Every shape takes the parameters [a, b, c] and returns [r / d] for a
   seeded parameter [d], so a zero or -1 argument makes the routine trap. *)

module Ast = Ir.Ast

type shape = Seqif | Nestedif | Loops | Straight

let all = [ Seqif; Nestedif; Loops; Straight ]

let name = function
  | Seqif -> "seqif"
  | Nestedif -> "nestedif"
  | Loops -> "loops"
  | Straight -> "straight"

let of_name s = List.find_opt (fun sh -> name sh = s) all

let params = [ "a"; "b"; "c" ]
let v x = Ast.Evar x
let n k = Ast.Enum k
let add x y = Ast.Ebinop (Ir.Types.Add, x, y)
let assign x e = Ast.Sassign (x, e)

(* [a > c + i]: a guard whose truth the engine cannot decide statically. *)
let guard i = Ast.Ecmp (Ir.Types.Gt, v "a", add (v "c") (n i))

(* Statement count of a body, nested statements included. *)
let rec count_stmts body =
  List.fold_left
    (fun acc s ->
      acc + 1
      +
      match s with
      | Ast.Sif (_, t, e) -> count_stmts t + count_stmts e
      | Ast.Swhile (_, b) -> count_stmts b
      | Ast.Sswitch (_, cases, d) ->
          List.fold_left (fun a (_, b) -> a + count_stmts b) (count_stmts d) cases
      | _ -> 0)
    0 body

(* A routine of [shape] with about [stmts] statements; [rng] draws the
   constants and the divisor. *)
let routine rng shape ~stmts ~name:rname =
  let k () = Util.Prng.range rng 1 9 in
  let body =
    match shape with
    | Seqif ->
        List.init ((stmts - 2) / 2) (fun i ->
            Ast.Sif (guard i, [ assign "r" (add (v "r") (n (k ()))) ], []))
    | Nestedif ->
        let rec nest i m =
          if i = m then []
          else
            let inc = assign "r" (add (v "r") (n (k ()))) in
            [ Ast.Sif (guard i, inc :: nest (i + 1) m, []) ]
        in
        nest 0 ((stmts - 2) / 2)
    | Loops ->
        (* Each nest runs 2 x 3 iterations and has 7 statements. *)
        List.concat
          (List.init ((stmts - 2) / 7) (fun j ->
               let i = Printf.sprintf "i%d" j and jj = Printf.sprintf "j%d" j in
               let lt x m = Ast.Ecmp (Ir.Types.Lt, v x, n m) in
               let incr x = assign x (add (v x) (n 1)) in
               let x = Ast.Ebinop (Ir.Types.Xor, v "a", n (k ())) in
               [
                 assign i (n 0);
                 Ast.Swhile
                   ( lt i 2,
                     [
                       assign jj (n 0);
                       Ast.Swhile (lt jj 3, [ assign "r" (add (v "r") x); incr jj ]);
                       incr i;
                     ] );
               ]))
    | Straight ->
        List.concat
          (List.init ((stmts - 2) / 2) (fun i ->
               let prev = if i = 0 then "r" else Printf.sprintf "x%d" (i - 1) in
               let e = add (v prev) (Ast.Ebinop (Ir.Types.Mul, v "a", n (k ()))) in
               [ assign (Printf.sprintf "x%d" i) e; assign (Printf.sprintf "y%d" i) e ]))
  in
  let result =
    match (shape, body) with
    | Straight, _ :: _ -> Printf.sprintf "x%d" (((stmts - 2) / 2) - 1)
    | _ -> "r"
  in
  let d = Util.Prng.choose rng [| "a"; "b"; "c" |] in
  {
    Ast.name = rname;
    params;
    body =
      (assign "r" (v "b") :: body)
      @ [ Ast.Sreturn (Ast.Ebinop (Ir.Types.Div, v result, v d)) ];
  }
