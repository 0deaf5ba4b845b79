package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baseline.{ProbCore, ProbTruss}
import repro.cliques.FourCliques
import repro.graph.GraphGen
import repro.prob.{Approximations, PoissonBinomial, ReferenceKappa}
import scala.collection.mutable
import scala.util.Random

/** The flat kernel `ProbPeeling.peel` against the nested `ReferencePeel`:
  * the same scorer calls with the same arguments in the same order, and the
  * same ν, processing order, initial κ and counters. Equal call traces mean
  * each scorer array has the old length and order, which is what keeps DP
  * and AP ν bit-identical.
  */
class ReferencePeelSpec extends AnyFunSuite {
  import ReferencePeelSpec._

  /** Per run, the flat kernel's scorer and the nested reference's: DP pits
    * one `KappaDp` per peel, as the decompositions score, against the
    * cap-doubling `ReferenceKappa`.
    */
  private val scorers: Seq[(String, () => (ProbPeeling.Scorer, ProbPeeling.Scorer))] = Seq(
    "count" -> (() => { val s: ProbPeeling.Scorer = (_, probs, _) => probs.length; (s, s) }),
    "DP"    -> (() => (new PoissonBinomial.KappaDp, ReferenceKappa.kappa(_, _, _))),
    "AP"    -> (() => (Approximations.kappaAuto(_, _, _), Approximations.kappaAuto(_, _, _))))
  private val thetas = Seq(0.1, 0.2, 0.3)

  /** `keep = false` compares the scorer traces by their hashes only, for
    * inputs whose traces are too large to hold.
    */
  private def assertSameRun(what: String, in: ProbPeeling.Input, theta: Double,
                            scorer: () => (ProbPeeling.Scorer, ProbPeeling.Scorer), keep: Boolean = true): Unit = {
    val (flatScorer, nestedScorer) = scorer()
    val (flat, nested) = (new Tracing(flatScorer, keep), new Tracing(nestedScorer, keep))
    val got  = ProbPeeling.peel(in, theta, flat)
    val want = ReferencePeel.peel(in, theta, nested)
    val (a, b) = (flat.trace.result(), nested.trace.result())
    assert(java.util.Arrays.equals(a, b) && (flat.calls, flat.hash) == ((nested.calls, nested.hash)),
      s"$what: scorer traces differ (${flat.calls} and ${nested.calls} calls; first difference at ${java.util.Arrays.mismatch(a, b)})")
    assert(got.nu.sameElements(want.nu), what)
    assert(got.order.sameElements(want.order), what)
    assert(got.initialKappa.sameElements(want.initialKappa), what)
    assert((got.rescorings, got.stalePops) == ((want.rescorings, want.stalePops)), what)
  }

  test("flat and nested kernels: identical scorer traces and results on random inputs of arity 2, 3 and 4") {
    val rnd = new Random(61)
    for (arity <- 2 to 4; trial <- 1 to 8) {
      val in = randomInput(rnd, arity)
      for ((name, scorer) <- scorers; theta <- thetas)
        assertSameRun(s"arity $arity trial $trial $name θ=$theta", in, theta, scorer)
    }
  }

  test("flat and nested kernels: identical on high-support inputs, with groups killed at the start, middle and end of alive rows") {
    val rnd = new Random(67)
    for (arity <- 2 to 4; trial <- 1 to 3) {
      val in = highSupportInput(rnd, arity)
      for ((name, scorer) <- scorers; theta <- thetas)
        assertSameRun(s"arity $arity trial $trial $name θ=$theta", in, theta, scorer)
      val (start, middle, end) = killPositions(in, ReferencePeel.peel(in, 0.1, PoissonBinomial.kappaFast).order)
      assert(start > 0 && middle > 0 && end > 0, s"arity $arity trial $trial: kills at ($start, $middle, $end)")
    }
  }

  test("a scorer that overwrites its row gives the same ν, order and counters as a clean one") {
    // peel reuses one row buffer per length: what a scorer leaves in it must not reach a later call
    val scribbler: ProbPeeling.Scorer = (p, probs, theta) => {
      val k = PoissonBinomial.kappaFast(p, probs, theta)
      java.util.Arrays.fill(probs, Double.NaN)
      k
    }
    val rnd = new Random(71)
    val inputs = for (arity <- 2 to 4; trial <- 1 to 4)
      yield (s"arity $arity trial $trial", if (trial % 2 == 0) randomInput(rnd, arity) else highSupportInput(rnd, arity))
    for ((what, in) <- inputs; theta <- thetas) {
      val (got, want) = (ProbPeeling.peel(in, theta, scribbler), ProbPeeling.peel(in, theta, PoissonBinomial.kappaFast))
      assert(got.nu.sameElements(want.nu) && got.order.sameElements(want.order), s"$what θ=$theta")
      assert(got.initialKappa.sameElements(want.initialKappa), s"$what θ=$theta")
      assert((got.rescorings, got.stalePops) == ((want.rescorings, want.stalePops)), s"$what θ=$theta")
    }
  }

  private def assertSameOnStandIn(ds: String, keep: Boolean): Unit = {
    val g = GraphGen.dataset(ds)
    val inputs = Seq(
      "ℓ"     -> LocalNucleus.kernelInput(FourCliques.build(g)),
      "truss" -> ProbTruss.kernelInput(g),
      "core"  -> ProbCore.kernelInput(g))
    for ((kind, in) <- inputs; (name, scorer) <- scorers; theta <- thetas)
      assertSameRun(s"$ds $kind $name θ=$theta", in, theta, scorer, keep)
  }

  test("flat and nested kernels: identical on the ℓ, truss and core inputs of the six Table 1/2 stand-ins") {
    GraphGen.paperDatasets.foreach(assertSameOnStandIn(_, keep = true))
  }

  test("flat and nested kernels: identical on the ℓ, truss and core inputs of the pokec_Normal, pokec_Pareto and enwiki stand-ins") {
    Seq("pokec_Normal", "pokec_Pareto", "enwiki").foreach(assertSameOnStandIn(_, keep = false))
  }
}

object ReferencePeelSpec {

  /** Records each call as (itemProb, θ, length, probs...) if `keep`, folds
    * the same words into a 64-bit FNV-1a-style hash of their raw bits, and
    * delegates. For a fixed rest of the trace the hash is a bijection of
    * each word, so two traces that differ in one word never hash alike.
    */
  final class Tracing(base: ProbPeeling.Scorer, keep: Boolean = true) extends ProbPeeling.Scorer {
    val trace = mutable.ArrayBuilder.make[Double]
    var hash  = 0xcbf29ce484222325L
    var calls = 0L
    private def mix(bits: Long): Unit = hash = (hash ^ bits) * 0x100000001b3L
    def apply(p: Double, probs: Array[Double], theta: Double): Int = {
      if (keep) { trace += p; trace += theta; trace += probs.length; trace.addAll(probs) }
      mix(java.lang.Double.doubleToRawLongBits(p)); mix(java.lang.Double.doubleToRawLongBits(theta)); mix(probs.length)
      var i = 0
      while (i < probs.length) { mix(java.lang.Double.doubleToRawLongBits(probs(i))); i += 1 }
      calls += 1
      base(p, probs, theta)
    }
  }

  /** 20–59 items and up to 4·n groups of `arity` distinct random items; a
    * third of the Pr(E) values and item probabilities are 1, the rest
    * uniform, so κ runs from −1 to well above the level at θ ≤ 0.3.
    */
  def randomInput(rnd: Random, arity: Int): ProbPeeling.Input = {
    val n = 20 + rnd.nextInt(40)
    def prob() = if (rnd.nextInt(3) == 0) 1.0 else rnd.nextDouble()
    val members = Array.fill(rnd.nextInt(4 * n + 1))(rnd.shuffle((0 until n).toVector).take(arity)).flatten
    ProbPeeling.Input.ofGroups(Array.fill(n)(prob()), arity, members, Array.fill(members.length)(prob()))
  }

  /** 15–29 items, each the first member of 50 groups whose other members are
    * random, with the groups in random id order: every item lies in at least
    * 50 groups, scattered over its row.
    */
  def highSupportInput(rnd: Random, arity: Int): ProbPeeling.Input = {
    val n = 15 + rnd.nextInt(15)
    def prob() = if (rnd.nextInt(3) == 0) 1.0 else rnd.nextDouble()
    val groups = for (item <- 0 until n; _ <- 1 to 50)
      yield item +: rnd.shuffle((0 until n).filter(_ != item).toVector).take(arity - 1)
    val members = rnd.shuffle(groups).flatten.toArray
    ProbPeeling.Input.ofGroups(Array.fill(n)(prob()), arity, members, Array.fill(members.length)(prob()))
  }

  /** Replays a peel in processing `order` and counts, over every (dead group,
    * surviving member) pair, where the group sat in that member's alive row
    * in group order: (first, strictly inside, last) of a row of two or more.
    */
  def killPositions(in: ProbPeeling.Input, order: Array[Int]): (Int, Int, Int) = {
    val alive = Array.fill(in.nGroups)(true)
    var (start, middle, end) = (0, 0, 0)
    for (item <- order; g <- in.itemGroups(item) if alive(g)) {
      for (other <- in.groupItems(g) if other != item) {
        val row = in.itemGroups(other).filter(alive)
        val at  = row.indexOf(g)
        if (row.length > 1) {
          if (at == 0) start += 1 else if (at == row.length - 1) end += 1 else middle += 1
        }
      }
      alive(g) = false
    }
    (start, middle, end)
  }
}
