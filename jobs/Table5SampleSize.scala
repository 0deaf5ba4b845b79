package repro.jobs

import repro.exp.Tables

/** Entry point for Table 5 (effect of ε and δ via the Monte-
  * Carlo sample size n on g/w nuclei metrics; krogan, θ = 0.1).
  * Args: [scale].
  */
object Table5SampleSize {
  def main(args: Array[String]): Unit = {
    val scale = args.headOption.map(_.toDouble).getOrElse(1.0)
    println("== Table 5: effect of sample size on g/w nuclei (krogan) ==")
    println(Tables.formatTable5(Tables.table5(scale = scale)))
  }
}
