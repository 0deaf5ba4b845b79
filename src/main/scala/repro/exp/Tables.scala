package repro.exp

import repro.baseline.{ProbCore, ProbTruss}
import repro.cliques.FourCliques
import repro.core._
import repro.graph.{GraphGen, GraphOps, ProbGraph}
import repro.prob.Sampler

/** Shared experiment logic: one function per evaluation table, returning
  * structured rows so the bench suites can both print paper-style tables
  * and assert the expected shapes, and the jobs/ entrypoints can print them
  * standalone. See DESIGN.md §4 for the table index and EXPERIMENTS.md for
  * paper-vs-measured numbers.
  */
object Tables {

  /** Wall-clock a block, returning (result, seconds). */
  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r  = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Cooperative DP time budget: the scorer checks a deadline every few
    * thousand invocations and aborts the whole decomposition — this is how
    * "N.P." (not-possible) cells of the §7.2 enwiki table are detected.
    */
  final case class NotPossible(budgetSec: Double) extends RuntimeException

  def scorerWithBudget(base: ProbPeeling.Scorer, budgetSec: Double): ProbPeeling.Scorer = {
    val deadline = System.nanoTime() + (budgetSec * 1e9).toLong
    var calls    = 0
    (p, probs, theta) => {
      calls += 1
      if ((calls & 0x3ff) == 0 && System.nanoTime() > deadline) throw NotPossible(budgetSec)
      base(p, probs, theta)
    }
  }

  // ------------------------------------------------------------------
  // Table 1 — dataset statistics
  // ------------------------------------------------------------------
  final case class T1Row(dataset: String, stats: GraphOps.Stats)

  def table1(datasets: Seq[String] = GraphGen.paperDatasets :+ "enwiki",
             scale: Double = 1.0): Seq[T1Row] =
    datasets.map(d => T1Row(d, GraphOps.stats(GraphGen.dataset(d, scale))))

  def formatTable1(rows: Seq[T1Row]): String = {
    val header = f"${"Graph"}%-14s ${"|V|"}%10s ${"|E|"}%10s ${"d_max"}%7s ${"p_avg"}%7s ${"|tri|"}%10s"
    (header +: rows.map { r =>
      f"${r.dataset}%-14s ${r.stats.nVertices}%10d ${r.stats.nEdges}%10d " +
        f"${r.stats.dMax}%7d ${r.stats.pAvg}%7.2f ${r.stats.nTriangles}%10d"
    }).mkString("\n")
  }

  // ------------------------------------------------------------------
  // Table 2 — AP accuracy vs DP (final nucleus scores)
  // ------------------------------------------------------------------
  final case class T2Row(dataset: String, theta: Double, avgError: Double,
                         pctWithError: Double, nTriangles: Int,
                         dpSec: Double, apSec: Double)

  /** Compare DP and AP decompositions on one graph at one θ. */
  def accuracyRow(name: String, g: ProbGraph, theta: Double): T2Row = {
    val cs = FourCliques.build(g)
    val (dp, dpSec) = timed(LocalNucleus.decompose(g, cs, theta, LocalNucleus.DP))
    val (ap, apSec) = timed(LocalNucleus.decompose(g, cs, theta, LocalNucleus.AP))
    val n = dp.nu.length
    var errSum = 0.0; var errCnt = 0
    var i = 0
    while (i < n) {
      val d = math.abs(dp.nu(i) - ap.nu(i))
      if (d > 0) { errSum += d; errCnt += 1 }
      i += 1
    }
    T2Row(name, theta,
      if (n == 0) 0.0 else errSum / n,
      if (n == 0) 0.0 else 100.0 * errCnt / n,
      n, dpSec, apSec)
  }

  def table2(datasets: Seq[String] = GraphGen.paperDatasets,
             thetas: Seq[Double] = Seq(0.2, 0.4), scale: Double = 1.0): Seq[T2Row] =
    for {
      d     <- datasets
      g      = GraphGen.dataset(d, scale)
      theta <- thetas
    } yield accuracyRow(d, g, theta)

  def formatTable2(rows: Seq[T2Row]): String = {
    val header = f"${"Dataset"}%-14s ${"theta"}%6s ${"AvgErr"}%9s ${"%withErr"}%9s ${"#tri"}%9s ${"DP(s)"}%8s ${"AP(s)"}%8s"
    (header +: rows.map { r =>
      f"${r.dataset}%-14s ${r.theta}%6.1f ${r.avgError}%9.4f ${r.pctWithError}%9.2f " +
        f"${r.nTriangles}%9d ${r.dpSec}%8.2f ${r.apSec}%8.2f"
    }).mkString("\n")
  }

  // ------------------------------------------------------------------
  // Table 3 — accuracy across probability distributions (pokec)
  // ------------------------------------------------------------------
  def table3(thetas: Seq[Double] = Seq(0.1, 0.2, 0.3), scale: Double = 1.0): Seq[T2Row] =
    for {
      d     <- Seq("pokec_Normal", "pokec_Pareto", "pokec")
      g      = GraphGen.dataset(d, scale)
      theta <- thetas
    } yield accuracyRow(if (d == "pokec") "pokec_Uniform" else d, g, theta)

  // ------------------------------------------------------------------
  // Table 4 — cohesiveness: nucleus vs truss vs core
  // ------------------------------------------------------------------
  final case class T4Side(nV: Double, nE: Double, kMax: Int, pd: Double, pcc: Double, sec: Double)
  final case class T4Row(dataset: String, theta: Double,
                         nucleus: T4Side, truss: T4Side, core: T4Side)

  private def avgStats(subs: Seq[ProbGraph]): (Double, Double, Double, Double) = {
    if (subs.isEmpty) return (0.0, 0.0, 0.0, 0.0)
    val vs  = subs.map(_.n.toDouble).sum / subs.size
    val es  = subs.map(_.m.toDouble).sum / subs.size
    val pds = subs.map(Metrics.pd).sum / subs.size
    val pcc = subs.map(Metrics.pcc).sum / subs.size
    (vs, es, pds, pcc)
  }

  def table4Row(name: String, g: ProbGraph, theta: Double): T4Row = {
    val (nuc, nSec) = timed {
      val d = LocalNucleus.decompose(g, theta, LocalNucleus.DP)
      val k = d.kMax
      (k, d.nucleiAt(k).map(n => d.graph.subgraph(n.edges)))
    }
    val (tru, tSec) = timed {
      val d = ProbTruss.decompose(g, theta)
      (d.kMax, d.trussesAt(d.kMax))
    }
    val (cor, cSec) = timed {
      val d = ProbCore.decompose(g, theta)
      (d.kMax, d.coresAt(d.kMax))
    }
    def side(kAndSubs: (Int, Seq[ProbGraph]), sec: Double): T4Side = {
      val (k, subs) = kAndSubs
      val (v, e, pd, pcc) = avgStats(subs)
      T4Side(v, e, k, pd, pcc, sec)
    }
    T4Row(name, theta, side(nuc, nSec), side(tru, tSec), side(cor, cSec))
  }

  def table4(datasets: Seq[String] = Seq("dblp", "pokec", "biomine"),
             thetas: Seq[Double] = Seq(0.1, 0.3), scale: Double = 1.0): Seq[T4Row] =
    for { d <- datasets; theta <- thetas }
      yield table4Row(d, GraphGen.dataset(d, scale), theta)

  def formatTable4(rows: Seq[T4Row]): String = {
    val header = f"${"Graph"}%-9s ${"th"}%4s | ${"V N/T/C"}%-21s | ${"E N/T/C"}%-24s | ${"kmax N/T/C"}%-12s | ${"PD N/T/C"}%-20s | ${"PCC N/T/C"}%-20s | ${"time(s) N/T/C"}%-20s"
    (header +: rows.map { r =>
      def f3(f: T4Side => Double, fmt: String) =
        Seq(r.nucleus, r.truss, r.core).map(s => fmt.format(f(s))).mkString("/")
      f"${r.dataset}%-9s ${r.theta}%4.1f | ${f3(_.nV, "%.0f")}%-21s | ${f3(_.nE, "%.0f")}%-24s | " +
        f"${Seq(r.nucleus, r.truss, r.core).map(_.kMax).mkString("/")}%-12s | " +
        f"${f3(_.pd, "%.3f")}%-20s | ${f3(_.pcc, "%.3f")}%-20s | ${f3(_.sec, "%.1f")}%-20s"
    }).mkString("\n")
  }

  // ------------------------------------------------------------------
  // Table 5 — effect of ε and δ (sample size) on g/w nuclei (krogan)
  // ------------------------------------------------------------------
  final case class T5Row(n: Int, pdG: Double, pdW: Double, pccG: Double, pccW: Double,
                         edgeG: Double, edgeW: Double, vertG: Double, vertW: Double)

  def table5(sampleSizes: Seq[Int] = Seq(150, 300, 500, 1000, 2000),
             theta: Double = 0.1, scale: Double = 1.0, seed: Long = 1234): Seq[T5Row] = {
    val g     = GraphGen.dataset("krogan", scale)
    val local = LocalNucleus.decompose(g, theta, LocalNucleus.DP)
    sampleSizes.map { n =>
      val gs = GlobalNucleus.decompose(local, n, seed + n)
      val ws = WeaklyGlobalNucleus.decompose(local, n, seed + 31L * n)
      def stats(ns: Seq[GlobalNucleus.ProbNucleus]): (Double, Double, Double, Double) = {
        if (ns.isEmpty) (0.0, 0.0, 0.0, 0.0)
        else {
          val graphs = ns.map(_.toGraph)
          (graphs.map(Metrics.pd).sum / ns.size, graphs.map(Metrics.pcc).sum / ns.size,
           graphs.map(_.m.toDouble).sum / ns.size, graphs.map(_.n.toDouble).sum / ns.size)
        }
      }
      val (pdG, pccG, eG, vG) = stats(gs)
      val (pdW, pccW, eW, vW) = stats(ws)
      T5Row(n, pdG, pdW, pccG, pccW, eG, eW, vG, vW)
    }
  }

  def formatTable5(rows: Seq[T5Row]): String = {
    val header = f"${"n"}%6s ${"PD_g"}%8s ${"PD_w"}%8s ${"PCC_g"}%8s ${"PCC_w"}%8s ${"E_g"}%8s ${"E_w"}%8s ${"V_g"}%8s ${"V_w"}%8s"
    def sd(xs: Seq[Double]): Double = {
      val m = xs.sum / xs.size
      math.sqrt(xs.map(x => (x - m) * (x - m)).sum / xs.size)
    }
    val body = rows.map { r =>
      f"${r.n}%6d ${r.pdG}%8.4f ${r.pdW}%8.4f ${r.pccG}%8.4f ${r.pccW}%8.4f " +
        f"${r.edgeG}%8.2f ${r.edgeW}%8.2f ${r.vertG}%8.2f ${r.vertW}%8.2f"
    }
    val sds = f"${"SD"}%6s ${sd(rows.map(_.pdG))}%8.4f ${sd(rows.map(_.pdW))}%8.4f " +
      f"${sd(rows.map(_.pccG))}%8.4f ${sd(rows.map(_.pccW))}%8.4f ${sd(rows.map(_.edgeG))}%8.2f " +
      f"${sd(rows.map(_.edgeW))}%8.2f ${sd(rows.map(_.vertG))}%8.2f ${sd(rows.map(_.vertW))}%8.2f"
    (header +: body :+ sds).mkString("\n")
  }

  // ------------------------------------------------------------------
  // §7.2 inline table — enwiki scaling: DP vs AP runtime per θ
  // ------------------------------------------------------------------
  final case class TERow(theta: Double, dpSec: Option[Double], apSec: Double, kMax: Int)

  def tableEnwiki(thetas: Seq[Double] = Seq(0.1, 0.2, 0.3, 0.4, 0.5),
                  scale: Double = 1.0, dpBudgetSec: Double = 300.0): Seq[TERow] = {
    val g  = GraphGen.dataset("enwiki", scale)
    val cs = FourCliques.build(g)
    // untimed JIT warmup of both scorer paths over the full structure —
    // otherwise the first timed mode pays all of the compilation cost
    LocalNucleus.decompose(g, cs, 0.5, LocalNucleus.AP)
    LocalNucleus.decompose(g, cs, 0.5, LocalNucleus.DP)
    thetas.map { theta =>
      // median of three runs per mode: sub-second cells are dominated by
      // GC/JIT noise on a 48g heap, and the paper's claim is about algorithmic cost
      def median3(xs: Seq[Double]): Double = xs.sorted.apply(1)
      val apRuns = Seq.fill(3)(timed(LocalNucleus.decompose(g, cs, theta, LocalNucleus.AP).kMax))
      def dpOnce() = timed {
        val in = LocalNucleus.kernelInput(cs)
        ProbPeeling.peel(in, theta, scorerWithBudget(LocalNucleus.scorer(LocalNucleus.DP), dpBudgetSec))
      }._2
      val dpSec = try Some(median3(Seq.fill(3)(dpOnce())))
                  catch { case NotPossible(_) => None }
      TERow(theta, dpSec, median3(apRuns.map(_._2)), apRuns.head._1)
    }
  }

  def formatTableEnwiki(rows: Seq[TERow]): String = {
    val header = f"${"theta"}%6s ${"AP(s)"}%10s ${"DP(s)"}%10s ${"kmax"}%6s"
    (header +: rows.map { r =>
      val dp = r.dpSec.map(s => f"$s%10.2f").getOrElse(f"${"N.P."}%10s")
      f"${r.theta}%6.1f ${r.apSec}%10.2f $dp ${r.kMax}%6d"
    }).mkString("\n")
  }
}
