type id =
  | Fig2a
  | Fig2b
  | Fig3b
  | Table1
  | Fig4
  | Fig5
  | Table2
  | Table3
  | Table4
  | Fig6
  | Fig7

let all =
  [ Fig2a; Fig2b; Fig3b; Table1; Fig4; Fig5; Table2; Table3; Table4; Fig6; Fig7 ]

let name = function
  | Fig2a -> "fig2a"
  | Fig2b -> "fig2b"
  | Fig3b -> "fig3b"
  | Table1 -> "table1"
  | Fig4 -> "fig4"
  | Fig5 -> "fig5"
  | Table2 -> "table2"
  | Table3 -> "table3"
  | Table4 -> "table4"
  | Fig6 -> "fig6"
  | Fig7 -> "fig7"

let run ppf ids =
  (* Fig 3(b)'s surface feeds Table 1's operating points; compute once. *)
  let fig3b = lazy (Exp_fig3b.run ()) in
  List.iter
    (function
      | Fig2a -> Exp_fig2a.print ppf (Exp_fig2a.run ())
      | Fig2b -> Exp_fig2b.print ppf (Exp_fig2b.run ())
      | Fig3b -> Exp_fig3b.print ppf (Lazy.force fig3b)
      | Table1 -> Exp_table1.print ppf (Exp_table1.run (Lazy.force fig3b).Exp_fig3b.surface)
      | Fig4 -> Exp_fig4.print ppf (Exp_fig4.run ())
      | Fig5 -> Exp_fig5.print ppf (Exp_fig5.run ())
      | Table2 -> Exp_tables234.print ppf (Exp_tables234.run Exp_tables234.Width)
      | Table3 -> Exp_tables234.print ppf (Exp_tables234.run Exp_tables234.Impurity)
      | Table4 -> Exp_tables234.print ppf (Exp_tables234.run Exp_tables234.Combined)
      | Fig6 -> Exp_fig6.print ppf (Exp_fig6.run ())
      | Fig7 -> Exp_fig7.print ppf (Exp_fig7.run ()))
    ids
