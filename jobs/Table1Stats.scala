package repro.jobs

import repro.exp.Tables

/** Entry point for Table 1 (dataset statistics): |V|, |E|, d_max, p_avg,
  * |Δ| for every dataset stand-in, the same rows `Table1Bench` prints.
  * Args: [scale].
  */
object Table1Stats {
  def main(args: Array[String]): Unit = {
    val scale = args.headOption.map(_.toDouble).getOrElse(1.0)
    println("== Table 1: Dataset Statistics ==")
    println(Tables.formatTable1(Tables.table1(scale = scale)))
  }
}
