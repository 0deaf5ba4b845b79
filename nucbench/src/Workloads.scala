package nucbench

import repro.baseline.{ProbCore, ProbTruss}
import repro.cliques.{FourCliques, Triangles}
import repro.core._
import repro.core.LocalNucleus.{AP, DP, Decomposition, Mode}
import repro.graph.{GraphGen, ProbGraph}
import repro.prob.{Approximations, Sampler}

/** One benchmark workload: the stand-in graphs it generates and one pass of
  * public calls over them. A pass registers each operation's output with
  * its checks; traced passes compose the same calls layer by layer.
  */
abstract class Workload(val name: String, val datasets: Seq[String], val theta: Double) {
  def pass(gs: Seq[(String, ProbGraph)], p: Pass, seed: Long): Unit
}

object Workloads {

  val all: Seq[Workload] = Seq(EnwikiPeel, KroganMc, PaperMix)

  def apply(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name (known: ${all.map(_.name).mkString(", ")})"))

  def setup(ds: String, scale: Double, seed: Long, p: Pass): ProbGraph = {
    val g = p.op(s"setup:$ds", "graph.generate_s")(GraphGen.dataset(ds, scale, seedOffset = seed))
    if (p.traced) { p.add("graph.vertices", g.n); p.add("graph.edges", g.m) }
    p.output(s"setup:$ds")(Checks.graph(g))(if (g.m > 0) Nil else Seq(s"$ds has no edges"))
    g
  }

  private def tag(mode: Mode): String = if (mode == DP) "dp" else "ap"

  /** ℓ-NuDecomp as one public call; traced, as enumeration → kernel input →
    * peel with a counting scorer, the composition `LocalNucleus.decompose`
    * runs.
    */
  def local(ds: String, g: ProbGraph, theta: Double, mode: Mode, p: Pass, seed: Long,
            dpRef: Option[Decomposition] = None): Decomposition = {
    val m   = tag(mode)
    val key = s"local_$m:$ds"
    val d = p.op(key, s"core.local_s.$m") {
      if (!p.traced) LocalNucleus.decompose(g, theta, mode)
      else {
        val (cs, cc) = p.span("cliques.fourcliques")(FourCliques.build(g))
        p.add("cliques.fourcliques_s", cc.sec); p.add("cliques.alloc_mb", cc.allocMb)
        val (in, ic) = p.span("core.kernel_input")(LocalNucleus.kernelInput(cs))
        p.add("core.kernel_input_s", ic.sec)
        val scorer   = new CountingScorer(LocalNucleus.scorer(mode), histogram = mode == AP)
        val (res, pc) = p.span(s"core.peel.$m")(ProbPeeling.peel(in, theta, scorer))
        p.add(s"core.peel_s.$m", pc.sec)
        p.add(s"core.peel_self_s.$m", pc.sec - (scorer.scorerNs + scorer.selectNs) / 1e9)
        p.add(s"core.peel_alloc_mb.$m", pc.allocMb)
        p.add(s"prob.scorer_calls.$m", scorer.calls)
        p.add(s"prob.rescore_calls.$m", scorer.calls - in.nItems)
        p.add(s"prob.scorer_work.$m", scorer.work)
        p.add(s"prob.scorer_s.$m", scorer.scorerNs / 1e9)
        if (mode == AP) {
          val names = Map[Approximations.Method, String](
            Approximations.Poisson -> "poisson", Approximations.TranslatedPoisson -> "translated_poisson",
            Approximations.Binomial -> "binomial", Approximations.CLT -> "clt",
            Approximations.ExactDP -> "exact_dp")
          scorer.methods.foreach { case (meth, n) => p.add(s"prob.ap_method.${names(meth)}", n) }
        } else {
          p.add("cliques.triangles", cs.nTriangles)
          p.add("cliques.fourcliques", cs.nCliques)
          p.max("cliques.support_max", cs.triCliques.foldLeft(0)((a, ts) => math.max(a, ts.length)))
        }
        LocalNucleus.Decomposition(g, cs, theta, res.nu, res.initialKappa)
      }
    }
    if (p.traced) {
      p.max(s"core.kmax.$m", d.kMax)
      dpRef.foreach { r =>
        val (avg, share) = Checks.apErrors(r.nu, d.nu)
        p.max("prob.ap_error_avg", avg); p.max("prob.ap_error_share", share) // worst graph
      }
    }
    if (mode == DP && p.mutating("nu")) d.nu.indexWhere(_ >= 0) match {
      case -1 =>
      case t  => d.nu(t) += 1
    }
    p.output(key)(Checks.nu(d)) {
      if (mode == DP) Checks.fixpoint(key, LocalNucleus.kernelInput(d.structure), d.nu, theta)
      else dpRef.toSeq.flatMap(r => Checks.apAgainstDp(r.nu, d.nu, table2Bounds = seed == 0))
    }
    d
  }

  /** Triangle listing on its own (it also runs inside every 4-clique build). */
  def triangleProbe(g: ProbGraph, p: Pass): Unit = p.probe("cliques.triangles") {
    val (_, c) = p.span("cliques.enumerate")(Triangles.enumerate(g))
    p.add("cliques.triangles_s", c.sec)
  }

  /** ℓ-nuclei of `d`: every level, or only k_max. */
  def nuclei(ds: String, d: Decomposition, allLevels: Boolean, p: Pass): Seq[LocalNucleus.Nucleus] = {
    val key = s"nuclei:$ds"
    val got = p.op(key, "core.nuclei_s")(if (allLevels) d.allNuclei else d.nucleiAt(d.kMax))
    val ns  = if (p.mutating("nucleus") && got.nonEmpty) {
      val n0 = got.head
      n0.copy(triangleIds = n0.triangleIds.dropRight(1)) +: got.tail
    } else got
    if (p.traced) p.add("core.nuclei", ns.size)
    val levels = if (allLevels) 1 to d.kMax else Seq(d.kMax)
    p.output(key)(Checks.nuclei(d.graph, ns)) {
      val byK = ns.groupBy(_.k)
      levels.flatMap(k => Checks.nucleiAt(d, k, byK.getOrElse(k, Nil)))
    }
    ns
  }
}

/** enwiki stand-in at θ = 0.1: DP and AP peeling at high κ and c_Δ, then
  * every ℓ-nucleus. No world sampling.
  */
object EnwikiPeel extends Workload("enwiki-peel", Seq("enwiki"), 0.1) {
  def pass(gs: Seq[(String, ProbGraph)], p: Pass, seed: Long): Unit = {
    val (ds, g) = gs.head
    val dp = Workloads.local(ds, g, theta, DP, p, seed)
    Workloads.local(ds, g, theta, AP, p, seed, Some(dp))
    Workloads.nuclei(ds, dp, allLevels = true, p)
    Workloads.triangleProbe(g, p)
  }
}

/** krogan stand-in at θ = 0.1 with Table 5's n = 300: almost all of the
  * pass is Monte-Carlo world sampling and the per-world nucleus check.
  */
object KroganMc extends Workload("krogan-mc", Seq("krogan"), 0.1) {
  val nSamples = 300
  // Table 5's MC seeds at this n, shifted by the workload seed
  def gSeed(seed: Long): Long = 1234L + nSamples + seed
  def wSeed(seed: Long): Long = 1234L + 31L * nSamples + seed

  def pass(gs: Seq[(String, ProbGraph)], p: Pass, seed: Long): Unit = {
    val (ds, g) = gs.head
    val dp = Workloads.local(ds, g, theta, DP, p, seed)

    // per level when traced: GlobalNucleus.decompose is decomposeAt over k = 1..kMax
    val gOut = p.op(s"global:$ds") {
      if (!p.traced) GlobalNucleus.decompose(dp, nSamples, gSeed(seed))
      else (1 to dp.kMax).flatMap { k =>
        val (r, c) = p.span(s"core.global.k$k")(GlobalNucleus.decomposeAt(dp, k, nSamples, gSeed(seed) + k))
        p.add("core.global_s", c.sec)
        r
      }
    }
    val wN = p.op(s"weakly:$ds") {
      if (!p.traced) WeaklyGlobalNucleus.decompose(dp, nSamples, wSeed(seed))
      else (1 to dp.kMax).flatMap { k =>
        val (r, c) = p.span(s"core.weakly.k$k")(
          WeaklyGlobalNucleus.decomposeAt(dp, k, nSamples, wSeed(seed) + 7919L * k))
        p.add("core.weakly_s", c.sec)
        r
      }
    }
    val gN = if (p.mutating("nucleus") && gOut.nonEmpty) {
      val n0 = gOut.head
      n0.copy(edges = n0.edges :+ ((-1L, -2L, 1.0))) +: gOut.tail
    } else gOut
    if (p.traced) { p.add("core.g_nuclei", gN.size); p.add("core.w_nuclei", wN.size) }
    p.output(s"global:$ds")(Checks.probNuclei(gN))(Checks.containment("g", dp, gN))
    p.output(s"weakly:$ds")(Checks.probNuclei(wN))(Checks.containment("w", dp, wN))

    Workloads.triangleProbe(g, p)
    p.probe("worlds")(worldProbe(dp, seed, p))
  }

  /** Cost per world on w's candidates and worlds: sampling and building the
    * world graph, the deterministic decomposition, and the k-nucleus test.
    */
  private def worldProbe(dp: Decomposition, seed: Long, p: Pass): Unit = {
    var worlds = 0L
    for (k <- 1 to dp.kMax; (cand, ci) <- dp.nucleiAt(k).zipWithIndex) {
      val h = ProbGraph(cand.edges.toIndexedSeq.map { case (u, v, q) => (dp.graph.labels(u), dp.graph.labels(v), q) })
      val (ws, sc) = p.span("prob.sample_worlds")(
        Sampler.sampleWorlds(h, nSamples, wSeed(seed) + 7919L * k + ci))
      val (_, dc) = p.span("core.det_decompose")(ws.foreach(DetNucleus.decompose))
      val (_, kc) = p.span("core.is_k_nucleus")(ws.foreach(DetNucleus.isKNucleus(_, k)))
      p.add("prob.world_sample_us", sc.sec * 1e6)
      p.add("core.det_decompose_us", dc.sec * 1e6)
      p.add("core.is_k_nucleus_us", kc.sec * 1e6)
      p.add("core.w_candidates", 1)
      worlds += ws.size
    }
    p.add("core.w_worlds", worlds.toDouble)
    if (worlds > 0) Seq("prob.world_sample_us", "core.det_decompose_us", "core.is_k_nucleus_us")
      .foreach(m => p.layers(m) /= worlds)
  }
}

/** The six Table 1/2 stand-ins at θ = 0.2: ℓ DP and AP, the top ℓ-nuclei with
  * PD, and the truss and core baselines with PCC (Table 4's calls). Low κ,
  * small c_Δ, many items; the same kernel runs at group arity 4, 3 and 2.
  */
object PaperMix extends Workload("paper-mix", GraphGen.paperDatasets, 0.2) {
  def pass(gs: Seq[(String, ProbGraph)], p: Pass, seed: Long): Unit = gs.foreach { case (ds, g) =>
    val dp  = Workloads.local(ds, g, theta, DP, p, seed)
    Workloads.local(ds, g, theta, AP, p, seed, Some(dp))
    val nuc = Workloads.nuclei(ds, dp, allLevels = false, p)
    val (truss, trusses) = p.op(s"truss:$ds", layer = "baseline.truss_s") {
      val d = ProbTruss.decompose(g, theta); (d, d.trussesAt(d.kMax))
    }
    val (core, cores) = p.op(s"core:$ds", layer = "baseline.core_s") {
      val d = ProbCore.decompose(g, theta); (d, d.coresAt(d.kMax))
    }
    val metrics = p.op(s"metrics:$ds", layer = "core.metrics_s") {
      nuc.map(n => Metrics.pd(ProbGraph(n.edges.toIndexedSeq.map { case (u, v, q) => (g.labels(u), g.labels(v), q) }))) ++
        trusses.map(Metrics.pcc) ++ cores.map(Metrics.pcc)
    }
    if (p.traced) { p.max("baseline.truss_kmax", truss.kMax); p.max("baseline.core_kmax", core.kMax) }
    p.output(s"truss:$ds")(Checks.edgeNumbers(g, truss.edgeList, truss.trussNumber) + Checks.subgraphs(trusses)) {
      Checks.fixpoint(s"truss:$ds", Checks.trussInput(g), truss.trussNumber, theta) ++
        (if (trusses.isEmpty) Seq(s"truss:$ds: no truss at k_max") else Nil)
    }
    p.output(s"core:$ds")(Checks.vertexNumbers(g, core.coreNumber) + Checks.subgraphs(cores)) {
      Checks.fixpoint(s"core:$ds", Checks.coreInput(g), core.coreNumber, theta) ++
        (if (cores.isEmpty) Seq(s"core:$ds: no core at k_max") else Nil)
    }
    p.output(s"metrics:$ds")(metrics.map(java.lang.Double.doubleToLongBits).mkString(",")) {
      if (metrics.forall(x => x >= 0.0 && x <= 1.0)) Nil else Seq(s"metrics:$ds: PD/PCC outside [0,1]")
    }
    Workloads.triangleProbe(g, p)
  }
}
