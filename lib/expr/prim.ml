type ('a, 'b) t1 =
  | Neg_int : (int, int) t1
  | Neg_float : (float, float) t1
  | Not : (bool, bool) t1
  | Abs_int : (int, int) t1
  | Abs_float : (float, float) t1
  | Sqrt : (float, float) t1
  | Exp : (float, float) t1
  | Log : (float, float) t1
  | Sin : (float, float) t1
  | Cos : (float, float) t1
  | Float_of_int : (int, float) t1
  | Truncate : (float, int) t1
  | Round : (float, int) t1
  | String_length : (string, int) t1

type ('a, 'b, 'c) t2 =
  | Add_int : (int, int, int) t2
  | Sub_int : (int, int, int) t2
  | Mul_int : (int, int, int) t2
  | Div_int : (int, int, int) t2
  | Mod_int : (int, int, int) t2
  | Add_float : (float, float, float) t2
  | Sub_float : (float, float, float) t2
  | Mul_float : (float, float, float) t2
  | Div_float : (float, float, float) t2
  | Pow_float : (float, float, float) t2
  | Min_int : (int, int, int) t2
  | Max_int : (int, int, int) t2
  | Min_float : (float, float, float) t2
  | Max_float : (float, float, float) t2
  | Eq : ('a, 'a, bool) t2
  | Ne : ('a, 'a, bool) t2
  | Lt : ('a, 'a, bool) t2
  | Le : ('a, 'a, bool) t2
  | Gt : ('a, 'a, bool) t2
  | Ge : ('a, 'a, bool) t2
  | And : (bool, bool, bool) t2
  | Or : (bool, bool, bool) t2
  | String_concat : (string, string, string) t2

let eval1 : type a b. (a, b) t1 -> a -> b = function
  | Neg_int -> fun x -> -x
  | Neg_float -> fun x -> -.x
  | Not -> not
  | Abs_int -> abs
  | Abs_float -> abs_float
  | Sqrt -> sqrt
  | Exp -> exp
  | Log -> log
  | Sin -> sin
  | Cos -> cos
  | Float_of_int -> float_of_int
  | Truncate -> truncate
  | Round -> fun x -> int_of_float (Float.round x)
  | String_length -> String.length

let eval2 : type a b c. (a, b, c) t2 -> a -> b -> c = function
  | Add_int -> ( + )
  | Sub_int -> ( - )
  | Mul_int -> ( * )
  | Div_int -> ( / )
  | Mod_int -> ( mod )
  | Add_float -> ( +. )
  | Sub_float -> ( -. )
  | Mul_float -> ( *. )
  | Div_float -> ( /. )
  | Pow_float -> ( ** )
  | Min_int -> Int.min
  | Max_int -> Int.max
  | Min_float -> Float.min
  | Max_float -> Float.max
  | Eq -> fun a b -> a = b
  | Ne -> fun a b -> a <> b
  | Lt -> fun a b -> a < b
  | Le -> fun a b -> a <= b
  | Gt -> fun a b -> a > b
  | Ge -> fun a b -> a >= b
  | And -> ( && )
  | Or -> ( || )
  | String_concat -> ( ^ )

let print1 : type a b. (a, b) t1 -> string -> string =
 fun p arg ->
  match p with
  | Neg_int -> Printf.sprintf "(- %s)" arg
  | Neg_float -> Printf.sprintf "(-. %s)" arg
  | Not -> Printf.sprintf "(not %s)" arg
  | Abs_int -> Printf.sprintf "(Stdlib.abs %s)" arg
  | Abs_float -> Printf.sprintf "(Stdlib.abs_float %s)" arg
  | Sqrt -> Printf.sprintf "(Stdlib.sqrt %s)" arg
  | Exp -> Printf.sprintf "(Stdlib.exp %s)" arg
  | Log -> Printf.sprintf "(Stdlib.log %s)" arg
  | Sin -> Printf.sprintf "(Stdlib.sin %s)" arg
  | Cos -> Printf.sprintf "(Stdlib.cos %s)" arg
  | Float_of_int -> Printf.sprintf "(Stdlib.float_of_int %s)" arg
  | Truncate -> Printf.sprintf "(Stdlib.truncate %s)" arg
  | Round -> Printf.sprintf "(Stdlib.int_of_float (Stdlib.Float.round %s))" arg
  | String_length -> Printf.sprintf "(Stdlib.String.length %s)" arg

let print2 : type a b c. (a, b, c) t2 -> string -> string -> string =
 fun p a b ->
  let infix op = Printf.sprintf "(%s %s %s)" a op b in
  match p with
  | Add_int -> infix "+"
  | Sub_int -> infix "-"
  | Mul_int -> infix "*"
  | Div_int -> infix "/"
  | Mod_int -> infix "mod"
  | Add_float -> infix "+."
  | Sub_float -> infix "-."
  | Mul_float -> infix "*."
  | Div_float -> infix "/."
  | Pow_float -> infix "**"
  | Min_int -> Printf.sprintf "(Stdlib.Int.min %s %s)" a b
  | Max_int -> Printf.sprintf "(Stdlib.Int.max %s %s)" a b
  | Min_float -> Printf.sprintf "(Stdlib.Float.min %s %s)" a b
  | Max_float -> Printf.sprintf "(Stdlib.Float.max %s %s)" a b
  | Eq -> infix "="
  | Ne -> infix "<>"
  | Lt -> infix "<"
  | Le -> infix "<="
  | Gt -> infix ">"
  | Ge -> infix ">="
  | And -> infix "&&"
  | Or -> infix "||"
  | String_concat -> infix "^"

let name1 : type a b. (a, b) t1 -> string = function
  | Neg_int -> "neg"
  | Neg_float -> "neg."
  | Not -> "not"
  | Abs_int -> "abs"
  | Abs_float -> "abs."
  | Sqrt -> "sqrt"
  | Exp -> "exp"
  | Log -> "log"
  | Sin -> "sin"
  | Cos -> "cos"
  | Float_of_int -> "float_of_int"
  | Truncate -> "truncate"
  | Round -> "round"
  | String_length -> "strlen"

let name2 : type a b c. (a, b, c) t2 -> string = function
  | Add_int -> "+"
  | Sub_int -> "-"
  | Mul_int -> "*"
  | Div_int -> "/"
  | Mod_int -> "mod"
  | Add_float -> "+."
  | Sub_float -> "-."
  | Mul_float -> "*."
  | Div_float -> "/."
  | Pow_float -> "**"
  | Min_int -> "min"
  | Max_int -> "max"
  | Min_float -> "min."
  | Max_float -> "max."
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "&&"
  | Or -> "||"
  | String_concat -> "^"
