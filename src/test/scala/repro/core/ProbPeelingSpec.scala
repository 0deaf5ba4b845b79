package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baseline.{ProbCore, ProbTruss}
import repro.cliques.{FourCliques, Triangles}
import repro.graph.{GraphGen, ProbGraph}
import repro.prob.PoissonBinomial
import scala.util.Random

/** The generic peeling kernel, exercised on its deterministic degenerate
  * instance (classic k-core peeling: all probabilities 1, κ = alive group
  * count) where ground truth is easy to compute independently.
  */
class ProbPeelingSpec extends AnyFunSuite {

  /** Build the vertex/edge kernel input of a deterministic graph. */
  private def coreInput(n: Int, edges: Seq[(Int, Int)]): ProbPeeling.Input =
    ProbPeeling.Input.ofGroups(Array.fill(n)(1.0), 2,
      edges.flatMap { case (u, v) => Seq(u, v) }.toArray, Array.fill(2 * edges.size)(1.0))

  private val countScorer: ProbPeeling.Scorer = (p, probs, th) => probs.length

  /** Reference k-core via repeated deletion. */
  private def coreNumbers(n: Int, edges: Seq[(Int, Int)]): Array[Int] = {
    val alive = Array.fill(n)(true)
    val deg   = new Array[Int](n)
    edges.foreach { case (u, v) => deg(u) += 1; deg(v) += 1 }
    val core = new Array[Int](n)
    var k = 0
    var remaining = n
    while (remaining > 0) {
      val peelable = (0 until n).filter(v => alive(v) && deg(v) <= k)
      if (peelable.isEmpty) k += 1
      else peelable.foreach { v =>
        core(v) = k; alive(v) = false; remaining -= 1
        edges.foreach { case (a, b) =>
          if (a == v && alive(b)) deg(b) -= 1
          if (b == v && alive(a)) deg(a) -= 1
        }
      }
    }
    core
  }

  test("deterministic degenerate case = classic k-core on a known graph") {
    // two triangles sharing a vertex + a pendant
    val edges = Seq((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5))
    val res = ProbPeeling.peel(coreInput(6, edges), 0.5, countScorer)
    assert(res.nu.toSeq == coreNumbers(6, edges).toSeq)
  }

  test("deterministic degenerate case matches reference on random graphs") {
    val rnd = new Random(42)
    for (trial <- 1 to 25) {
      val n = 8 + rnd.nextInt(15)
      val edges = (for {
        u <- 0 until n; v <- u + 1 until n if rnd.nextDouble() < 0.3
      } yield (u, v))
      val res = ProbPeeling.peel(coreInput(n, edges), 0.5, countScorer)
      assert(res.nu.toSeq == coreNumbers(n, edges).toSeq, s"trial $trial")
    }
  }

  test("clamping: ν values are non-decreasing in processing order") {
    val rnd = new Random(43)
    for (_ <- 1 to 20) {
      val n = 10 + rnd.nextInt(10)
      val edges = (for {
        u <- 0 until n; v <- u + 1 until n if rnd.nextDouble() < 0.4
      } yield (u, v))
      val base = coreInput(n, edges)
      val in   = ProbPeeling.Input.ofGroups(base.itemProb, 2, base.members,
        edges.flatMap(_ => Seq(rnd.nextDouble().max(0.1), rnd.nextDouble().max(0.1))).toArray)
      val res = ProbPeeling.peel(in, 0.3,
        (p, probs, th) => PoissonBinomial.kappaFast(p, probs, th))
      val nus = res.order.map(res.nu)
      nus.sliding(2).foreach { case Array(a, b) => assert(a <= b); case _ => }
    }
  }

  test("initial κ of an isolated item is its scorer value on no groups") {
    val in = ProbPeeling.Input(Array(1.0, 0.2), Array.empty, Array.empty, Array(Array.empty, Array.empty))
    val res = ProbPeeling.peel(in, 0.5,
      (p, probs, th) => PoissonBinomial.kappaFast(p, probs, th))
    assert(res.nu.toSeq == Seq(0, -1)) // second item exists with prob < θ
  }

  test("all items processed exactly once") {
    val edges = Seq((0, 1), (1, 2), (0, 2))
    val res = ProbPeeling.peel(coreInput(3, edges), 0.5, countScorer)
    assert(res.order.sorted.toSeq == Seq(0, 1, 2))
  }

  /** The nested arrays built by hand: group g's slice of the flat arrays,
    * and each item's groups found by scanning every group in order.
    */
  private def handBuilt(itemProb: Array[Double], arity: Int, members: Array[Int],
                        prE: Array[Double]): (Array[Array[Int]], Array[Array[Double]], Array[Array[Int]]) = {
    val groups = members.grouped(arity).toArray
    (groups, prE.grouped(arity).toArray,
      itemProb.indices.map(i => groups.indices.filter(g => groups(g).contains(i)).toArray).toArray)
  }

  private def nested[A](xs: Array[Array[A]]): Seq[Seq[A]] = xs.map(_.toSeq).toSeq

  test("ofGroups equals the hand-built nested input at arity 2, 3 and 4") {
    val rnd = new Random(44)
    for (trial <- 1 to 6) {
      val g  = GraphGen.graph(GraphGen.Spec(30 + rnd.nextInt(20), 120, Seq(6, 5),
        GraphGen.UniformDist(), seed = 100 + trial))
      val es = g.edges
      val tris = Triangles.enumerate(g)
      val triEdges = Triangles.edgeIds(g, tris)
      val cs = FourCliques.build(g)
      val cases = Seq(
        (Array.fill(g.n)(1.0), 2, es.flatMap(e => Array(e._1, e._2)), es.flatMap(e => Array(e._3, e._3))),
        (es.map(_._3), 3, triEdges, Array.fill(triEdges.length)(rnd.nextDouble())),
        (cs.tris.prob, 4, cs.cliqueTris, cs.cliquePrE))
      for ((itemProb, arity, members, prE) <- cases) {
        val what = s"trial $trial arity $arity"
        val got  = ProbPeeling.Input.ofGroups(itemProb, arity, members, prE)
        val (groupItems, groupPrE, itemGroups) = handBuilt(itemProb, arity, members, prE)
        assert(got.nGroups > 0, what)
        assert((got.itemProb eq itemProb) && (got.members eq members) && (got.prE eq prE), what)
        assert(nested(got.groupItems) == nested(groupItems), what)
        assert(nested(got.groupPrE) == nested(groupPrE), what)
        assert(nested(got.itemGroups) == nested(itemGroups), what)
        // the nested apply flattens the same groups back to the same input
        val back = ProbPeeling.Input(itemProb, groupItems, groupPrE, itemGroups)
        assert(back.arity == arity && back.members.sameElements(members) && back.prE.sameElements(prE), what)
      }
      val in = LocalNucleus.kernelInput(cs)
      assert((in.members eq cs.cliqueTris) && (in.prE eq cs.cliquePrE))
      assert(nested(in.itemGroups) == nested(cs.triCliques))
    }
  }

  test("peel leaves the input's members and Pr(E) arrays unchanged: ℓ, truss, core and random inputs") {
    val rnd = new Random(45)
    val g   = GraphGen.dataset("krogan")
    val inputs = Seq(LocalNucleus.kernelInput(FourCliques.build(g)), ProbTruss.kernelInput(g), ProbCore.kernelInput(g)) ++
      (2 to 4).map(ReferencePeelSpec.highSupportInput(rnd, _))
    for (in <- inputs; theta <- Seq(0.1, 0.3)) {
      val (members, prE, itemProb) = (in.members.clone(), in.prE.clone(), in.itemProb.clone())
      ProbPeeling.peel(in, theta, new PoissonBinomial.KappaDp)
      assert(in.members.sameElements(members), s"arity ${in.arity} θ=$theta: members")
      assert(in.prE.sameElements(prE) && in.itemProb.sameElements(itemProb), s"arity ${in.arity} θ=$theta: probabilities")
    }
  }

  test("ofGroups rejects members and Pr(E) arrays that do not form groups of the arity") {
    val one = Array.fill(3)(1.0)
    intercept[IllegalArgumentException](ProbPeeling.Input.ofGroups(one, 2, Array(0, 1, 2), Array(1.0, 1.0, 1.0)))
    intercept[IllegalArgumentException](ProbPeeling.Input.ofGroups(one, 2, Array(0, 1), Array(1.0)))
    intercept[IllegalArgumentException](ProbPeeling.Input.ofGroups(one, 2, Array(0, 1), Array(1.0, 1.0, 1.0)))
    intercept[IllegalArgumentException](ProbPeeling.Input.ofGroups(one, 0, Array.empty, Array.empty))
  }

  test("peel rejects more than Int.MaxValue (group, item) incidences before allocating") {
    // the nested Input that would feed it already throws, before flattening
    val members = Array.range(0, 32768)
    val prE     = Array.fill(32768)(0.5)
    // 70,000 groups share one 32,768-member array: 2.29e9 incidences, no large allocation
    val err = intercept[IllegalArgumentException](ProbPeeling.Input(Array.fill(32768)(1.0),
      Array.fill(70000)(members), Array.fill(70000)(prE), Array.fill(32768)(Array.emptyIntArray)))
    assert(err.getMessage.contains("2293760000"))
  }

  test("the nested Input rejects groups of mixed arity and misaligned Pr(E) lists") {
    val one = Array.fill(3)(1.0)
    val none = Array.fill(3)(Array.emptyIntArray)
    intercept[IllegalArgumentException](
      ProbPeeling.Input(one, Array(Array(0, 1), Array(0, 1, 2)), Array(Array(1.0, 1.0), Array(1.0, 1.0, 1.0)), none))
    intercept[IllegalArgumentException](
      ProbPeeling.Input(one, Array(Array(0, 1, 2), Array(0, 1)), Array(Array(1.0, 1.0, 1.0), Array(1.0, 1.0)), none))
    intercept[IllegalArgumentException](ProbPeeling.Input(one, Array(Array(0, 1)), Array(Array(1.0)), none))
    intercept[IllegalArgumentException](ProbPeeling.Input(one, Array(Array(0, 1)), Array.empty, none))
    intercept[IllegalArgumentException](ProbPeeling.Input(one, Array(Array.emptyIntArray), Array(Array.emptyDoubleArray), none))
  }

  test("peel rejects a group that lists the same item twice") {
    val one = Array.fill(3)(1.0)
    intercept[IllegalArgumentException](
      ProbPeeling.peel(ProbPeeling.Input.ofGroups(one, 3, Array(0, 1, 2, 1, 2, 1), Array.fill(6)(1.0)), 0.5, countScorer))
    intercept[IllegalArgumentException](ProbPeeling.peel(
      ProbPeeling.Input(one, Array(Array(0, 0)), Array(Array(1.0, 1.0)), Array(Array(0, 0), Array.empty, Array.empty)),
      0.5, countScorer))
  }

  /** Replays `res.order` on the nested input: each popped item kills its
    * alive groups and rescores, in first-listed order, the neighbours whose
    * κ is above its own; returns (rescorings, κ decreases, final κ).
    */
  private def replay(in: ProbPeeling.Input, theta: Double, scorer: ProbPeeling.Scorer,
                     res: ProbPeeling.Result): (Long, Long, Seq[Int]) = {
    val alive = Array.fill(in.nGroups)(true)
    val kappa = res.initialKappa.clone()
    var (rescorings, decreases) = (0L, 0L)
    for (item <- res.order) {
      val level  = kappa(item)
      val killed = in.itemGroups(item).filter(alive(_))
      killed.foreach(alive(_) = false)
      for (o <- killed.flatMap(in.groupItems(_)).distinct if o != item && kappa(o) > level) {
        val probs = in.itemGroups(o).filter(alive(_)).map(g => in.groupPrE(g)(in.groupItems(g).indexOf(o)))
        val k = math.max(scorer(in.itemProb(o), probs, theta), level)
        rescorings += 1
        if (k < kappa(o)) { kappa(o) = k; decreases += 1 }
      }
    }
    (rescorings, decreases, kappa.toSeq)
  }

  test("counters: rescorings = scorer calls − items, stale pops ≤ κ decreases (random inputs)") {
    val rnd = new Random(62)
    var stale = 0L
    for (arity <- 2 to 4; trial <- 1 to 10; theta <- Seq(0.1, 0.3)) {
      val in      = ReferencePeelSpec.randomInput(rnd, arity)
      val scorer  = new ReferencePeelSpec.Tracing(PoissonBinomial.kappaFast)
      val res     = ProbPeeling.peel(in, theta, scorer)
      val (rescorings, decreases, kappa) = replay(in, theta, PoissonBinomial.kappaFast, res)
      val what    = s"arity $arity trial $trial θ=$theta"
      assert(res.rescorings == scorer.calls - in.nItems, what)
      assert(res.rescorings == rescorings, what)
      assert(kappa == res.nu.toSeq, what)
      assert(res.stalePops <= decreases, what)
      stale += res.stalePops
    }
    assert(stale > 0) // the bound is not vacuous
  }

  test("peeling rejects θ that is NaN or outside [0, 1]: ℓ DP, ℓ AP, truss and core") {
    val k4 = ProbGraph(for (u <- 0L until 4L; v <- u + 1 until 4L) yield (u, v, 0.9))
    for (theta <- Seq(Double.NaN, -0.5, 1.5)) {
      intercept[IllegalArgumentException](LocalNucleus.decompose(k4, theta, LocalNucleus.DP))
      intercept[IllegalArgumentException](LocalNucleus.decompose(k4, theta, LocalNucleus.AP))
      intercept[IllegalArgumentException](ProbTruss.decompose(k4, theta))
      intercept[IllegalArgumentException](ProbCore.decompose(k4, theta))
    }
    assert(LocalNucleus.decompose(k4, 0.0, LocalNucleus.DP).nu.toSeq == Seq(1, 1, 1, 1))
    assert(ProbCore.decompose(k4, 1.0).coreNumber.toSeq == Seq(0, 0, 0, 0))
  }
}
