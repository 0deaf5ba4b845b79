package repro.core

/** Generic probabilistic peeling kernel.
  *
  * All four decompositions in this repo are instances of one abstract
  * problem: *items* (triangles / edges / vertices) supported by *groups*
  * (4-cliques / triangles / incident edges), where each (group, member) pair
  * carries a Bernoulli probability Pr(E_i) and each item an existence
  * probability multiplier. An item's score
  * κ = max k with itemProb·Pr[ζ ≥ k] ≥ θ, ζ the Poisson-binomial over its
  * alive groups' Pr(E_i). A group dies when any of its member items is
  * processed. Peeling repeatedly processes a minimum-κ item, records
  * ν(item) = κ, kills its groups and rescores the affected neighbours
  * (clamped below by the current level, the standard monotone-peeling
  * invariant, cf. Batagelj–Zaveršnik [2] and Algorithm 1).
  *
  * Instances:
  *  - ℓ-NuDecomp: items = triangles (itemProb = Pr(Δ)), groups = 4-cliques;
  *  - probabilistic (k,γ)-truss: items = edges (itemProb = p(e)),
  *    groups = triangles, Pr(E_i) = product of the two wing edges;
  *  - probabilistic (k,η)-core: items = vertices (itemProb = 1),
  *    groups = incident edges, Pr(E_i) = p(e);
  *  - deterministic decompositions: all probabilities 1, any θ ∈ (0,1] —
  *    κ degenerates to the alive-group count.
  */
object ProbPeeling {

  /** κ-scorer: (itemExistProb, alive group probabilities, θ) → κ ∈ [-1, c].
    * The probabilities come as an exact-length array in group order that is
    * valid only during the call: `peel` refills it for later calls, so a
    * scorer must not keep it (copy what it needs).
    */
  type Scorer = (Double, Array[Double], Double) => Int

  /** The item/group hypergraph, flat: group g's members are
    * `members(arity·g until arity·(g+1))` with the aligned Pr(E) values in
    * `prE`. Each item's groups are taken in increasing group order, so a
    * scorer sees an item's probabilities in group order. The arrays are the
    * caller's, not copies, and `peel` never writes them.
    */
  final class Input private (val itemProb: Array[Double], val arity: Int,
                             val members: Array[Int], val prE: Array[Double]) {
    def nItems: Int  = itemProb.length
    def nGroups: Int = members.length / arity

    // Nested read-only views, built on first read, for the fixpoint check
    // and the test references; `peel` reads none of them. They and the
    // nested `Input.apply` go away when the benchmark's checks read the flat
    // arrays.
    /** Group g's members. */
    lazy val groupItems: Array[Array[Int]] = members.grouped(arity).toArray
    /** Group g's Pr(E) values, aligned with `groupItems(g)`. */
    lazy val groupPrE: Array[Array[Double]] = prE.grouped(arity).toArray
    /** Each item's groups, in increasing group order. */
    lazy val itemGroups: Array[Array[Int]] = {
      val out = Array.fill(nItems)(Array.newBuilder[Int])
      members.indices.foreach(i => out(members(i)) += i / arity)
      out.map(_.result())
    }
  }

  object Input {

    /** The input of groups of a fixed `arity` over the flat `members` and
      * `prE`, which it keeps without copying.
      */
    def ofGroups(itemProb: Array[Double], arity: Int, members: Array[Int], prE: Array[Double]): Input = {
      require(arity >= 1 && members.length % arity == 0 && prE.length == members.length,
        s"${members.length} members and ${prE.length} Pr(E) values do not form groups of $arity")
      new Input(itemProb, arity, members, prE)
    }

    /** The input of nested groups, flattened; `itemGroups` is not read (the
      * view is derived from `groupItems`). Every group must have one arity
      * (1 if there are none), and the incidences must fit in an array: both
      * are checked before anything is allocated.
      */
    def apply(itemProb: Array[Double], groupItems: Array[Array[Int]], groupPrE: Array[Array[Double]],
              itemGroups: Array[Array[Int]]): Input = {
      val arity = if (groupItems.isEmpty) 1 else groupItems(0).length
      require(groupPrE.length == groupItems.length &&
        groupItems.indices.forall(g => groupItems(g).length == arity && groupPrE(g).length == arity),
        s"the groups and their Pr(E) lists do not all have $arity members")
      val total = groupItems.length.toLong * arity
      require(total <= Int.MaxValue, s"$total (group, item) incidences exceed ${Int.MaxValue}")
      ofGroups(itemProb, arity, groupItems.flatten, groupPrE.flatten)
    }
  }

  /** Result: final scores ν (−1 = item's own existence probability < θ),
    * items in processing order, initial κ values, the number of rescoring
    * scorer calls (every call after the initial one per item) and the
    * number of stale bucket entries popped (an item already processed, or
    * queued under a κ it has since left).
    */
  final case class Result(nu: Array[Int], order: Array[Int], initialKappa: Array[Int],
                          rescorings: Long, stalePops: Long)

  /** Run the peeling to completion. O(Σ κ·c) rescoring cost with a bucket
    * queue and lazy deletion, matching the paper's complexity analysis
    * (Batagelj–Zaveršnik bucket peeling). The bookkeeping is O(1) per queue
    * entry, a copy of the alive row into a reused buffer of its length per
    * scorer call, and a binary search plus an O(row) memmove per (dead
    * group, surviving member).
    *
    * The item→(group, Pr(E)) incidences are derived from the flat
    * `members`/`prE` as a CSR (`off`, `eGroup`, `ePrE`) with each item's row
    * in increasing group order. Each row keeps its alive groups as a prefix
    * of length `aliveCnt`, still in group order: a dead group is shifted out
    * of every other member's prefix. `peel` rejects a group that lists an
    * item twice.
    */
  def peel(in: Input, theta: Double, scorer: Scorer): Result = {
    require(theta >= 0 && theta <= 1, s"θ must be in [0, 1], got $theta")
    val n       = in.nItems
    val arity   = in.arity
    val members = in.members
    val total   = members.length

    // counting pass: row lengths, and stamp(item) = last group seen listing it
    val stamp = new Array[Int](n)
    val off   = new Array[Int](n + 1)
    java.util.Arrays.fill(stamp, -1)
    var x = 0
    while (x < total) {
      val item = members(x)
      val g    = x / arity
      if (stamp(item) == g) throw new IllegalArgumentException(s"group $g lists item $item twice")
      stamp(item) = g
      off(item + 1) += 1
      x += 1
    }
    var i = 0
    while (i < n) { off(i + 1) += off(i); i += 1 }
    val eGroup   = new Array[Int](total)
    val ePrE     = new Array[Double](total)
    val aliveCnt = new Array[Int](n) // fill cursor, then the length of the item's alive prefix
    x = 0
    while (x < total) {
      val item = members(x)
      val e    = off(item) + aliveCnt(item)
      eGroup(e) = x / arity
      ePrE(e)   = in.prE(x)
      aliveCnt(item) += 1
      x += 1
    }

    val processed = new Array[Boolean](n)
    val kappa     = new Array[Int](n)
    val nu        = new Array[Int](n)
    val order     = new Array[Int](n)

    // one scorer buffer per row length c, allocated at its first use
    var maxRow = 0
    i = 0
    while (i < n) { maxRow = math.max(maxRow, aliveCnt(i)); i += 1 }
    val rows = new Array[Array[Double]](maxRow + 1)

    /** The item's Pr(E) over its alive groups, in group order, in the buffer of its length. */
    def aliveRow(item: Int): Array[Double] = {
      val c = aliveCnt(item)
      if (rows(c) == null) rows(c) = new Array[Double](c)
      System.arraycopy(ePrE, off(item), rows(c), 0, c)
      rows(c)
    }

    var maxK = 0
    i = 0
    while (i < n) {
      kappa(i) = scorer(in.itemProb(i), aliveRow(i), theta)
      if (kappa(i) > maxK) maxK = kappa(i)
      i += 1
    }
    val initial = kappa.clone()

    // FIFO bucket queue over κ ∈ [-1, maxK] (bucket κ + 1) with lazy
    // deletion: an entry is stale if its item was processed or its κ changed.
    val initialCount = new Array[Int](maxK + 2)
    i = 0
    while (i < n) { initialCount(kappa(i) + 1) += 1; i += 1 }
    val bucket = Array.tabulate(maxK + 2)(b => new Array[Int](initialCount(b)))
    val head   = new Array[Int](maxK + 2)
    val tail   = new Array[Int](maxK + 2)
    def push(b: Int, item: Int): Unit = {
      if (tail(b) == bucket(b).length) { // full: compact if at most half is live, else double
        val live = tail(b) - head(b)
        if (head(b) > 0 && 2 * live <= bucket(b).length)
          System.arraycopy(bucket(b), head(b), bucket(b), 0, live)
        else bucket(b) = java.util.Arrays.copyOfRange(bucket(b), head(b), head(b) + math.max(8, 2 * bucket(b).length))
        head(b) = 0
        tail(b) = live
      }
      bucket(b)(tail(b)) = item
      tail(b) += 1
    }
    i = 0
    while (i < n) { push(kappa(i) + 1, i); i += 1 }

    java.util.Arrays.fill(stamp, -1) // from here stamp(other) = the popped item that listed it
    val affected   = new Array[Int](n)
    var rescorings = 0L
    var stalePops  = 0L
    var level = 0 // current bucket being drained
    var done  = 0
    while (done < n) {
      while (head(level) == tail(level)) level += 1
      val item = bucket(level)(head(level))
      head(level) += 1
      if (processed(item) || kappa(item) + 1 != level) stalePops += 1
      else {
        processed(item) = true
        nu(item) = kappa(item)
        order(done) = item
        done += 1
        // kill this item's alive groups: remove each from the other members'
        // alive prefixes, and collect the affected neighbours in first-listed
        // order (an alive group has no processed member)
        var nAffected = 0
        var e = off(item)
        while (e < off(item) + aliveCnt(item)) {
          val grp = eGroup(e)
          var j = arity * grp
          while (j < arity * (grp + 1)) {
            val other = members(j)
            if (other != item) {
              val end = off(other) + aliveCnt(other)
              val at  = java.util.Arrays.binarySearch(eGroup, off(other), end, grp)
              System.arraycopy(eGroup, at + 1, eGroup, at, end - at - 1)
              System.arraycopy(ePrE, at + 1, ePrE, at, end - at - 1)
              aliveCnt(other) -= 1
              if (kappa(other) > kappa(item) && stamp(other) != item) {
                stamp(other) = item
                affected(nAffected) = other
                nAffected += 1
              }
            }
            j += 1
          }
          e += 1
        }
        var a = 0
        while (a < nAffected) {
          val other   = affected(a)
          val fresh   = scorer(in.itemProb(other), aliveRow(other), theta)
          val clamped = math.max(fresh, kappa(item)) // monotone-peeling clamp
          rescorings += 1
          if (clamped < kappa(other)) {
            kappa(other) = clamped
            // clamped ≥ κ(item), whose bucket is `level`: never below the level being drained
            push(clamped + 1, other)
          }
          a += 1
        }
      }
    }
    Result(nu, order, initial, rescorings, stalePops)
  }
}
