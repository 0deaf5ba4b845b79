package repro.jobs

import repro.exp.Tables

/** Entry point for Table 2 (AP accuracy vs DP, θ ∈ {0.2, 0.4}).
  * Args: [scale].
  */
object Table2Accuracy {
  def main(args: Array[String]): Unit = {
    val scale = args.headOption.map(_.toDouble).getOrElse(1.0)
    println("== Table 2: AP error vs DP ==")
    println(Tables.formatTable2(Tables.table2(scale = scale)))
  }
}
