package repro.jobs

import repro.exp.Tables

/** Entry point for the §7.2 inline enwiki-2013 scaling table
  * (DP vs AP runtime across θ; DP cells exceeding the budget print N.P.).
  * Args: [scale] [dpBudgetSec].
  */
object TableEnwikiScaling {
  def main(args: Array[String]): Unit = {
    val scale  = args.headOption.map(_.toDouble).getOrElse(1.0)
    val budget = args.lift(1).map(_.toDouble).getOrElse(300.0)
    println("== §7.2 inline table: enwiki stand-in, DP vs AP ==")
    println(Tables.formatTableEnwiki(Tables.tableEnwiki(scale = scale, dpBudgetSec = budget)))
  }
}
