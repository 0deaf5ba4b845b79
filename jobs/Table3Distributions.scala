package repro.jobs

import repro.exp.Tables

/** Entry point for Table 3 (pokec with Normal / Pareto /
  * Uniform edge probabilities; θ ∈ {0.1, 0.2, 0.3}). Args: [scale].
  */
object Table3Distributions {
  def main(args: Array[String]): Unit = {
    val scale = args.headOption.map(_.toDouble).getOrElse(1.0)
    println("== Table 3: error across probability distributions (pokec) ==")
    println(Tables.formatTable2(Tables.table3(scale = scale)))
  }
}
