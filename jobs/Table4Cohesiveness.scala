package repro.jobs

import repro.exp.Tables

/** Entry point for Table 4 (cohesiveness of nucleus vs truss vs
  * core at their maximum scores; θ ∈ {0.1, 0.3}). Args: [scale].
  */
object Table4Cohesiveness {
  def main(args: Array[String]): Unit = {
    val scale = args.headOption.map(_.toDouble).getOrElse(1.0)
    println("== Table 4: nucleus (N) vs truss (T) vs core (C) ==")
    println(Tables.formatTable4(Tables.table4(scale = scale)))
  }
}
