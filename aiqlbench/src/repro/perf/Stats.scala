package repro.perf

/** Order statistics used for every reported timing. */
object Stats {

  /** The `p`-quantile (0 ≤ p ≤ 1) of a non-empty sample, interpolating
    * linearly between closest ranks: rank `p·(n−1)` over the sorted values
    * (NumPy's default, Python's `statistics.quantiles(method="inclusive")`).
    */
  def quantile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "quantile of an empty sample")
    require(p >= 0 && p <= 1, s"quantile $p outside [0, 1]")
    val s = xs.sorted
    val r = p * (s.size - 1)
    val lo = r.toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (r - lo) * (s(hi) - s(lo))
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  /** Total length of the union of closed intervals `[a, b]`, counting only
    * the part inside `[lo, hi]`.
    */
  def unionLength(intervals: Seq[(Double, Double)], lo: Double, hi: Double): Double = {
    val clipped = intervals
      .map { case (a, b) => (math.max(a, lo), math.min(b, hi)) }
      .filter { case (a, b) => b > a }
      .sortBy(_._1)
    var total = 0.0
    var curA = Double.NaN
    var curB = Double.NaN
    for ((a, b) <- clipped) {
      if (curB.isNaN || a > curB) {
        if (!curB.isNaN) total += curB - curA
        curA = a; curB = b
      } else curB = math.max(curB, b)
    }
    if (!curB.isNaN) total += curB - curA
    total
  }
}

/** Minimal JSON writer for the result lines (numbers, strings, sequences
  * and maps); the harness emits, it never parses.
  */
object Json {
  def apply(v: Any): String = v match {
    case null                 => "null"
    case s: String            => quote(s)
    case b: Boolean           => b.toString
    case d: Double            => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float             => apply(f.toDouble)
    case n: Int               => n.toString
    case n: Long              => n.toString
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => s"${quote(k.toString)}: ${apply(x)}" }.mkString("{", ", ", "}")
    case xs: Iterable[_]      => xs.map(apply).mkString("[", ", ", "]")
    case other                => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case '\t' => b ++= "\\t"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    b += '"'
    b.toString
  }
}
