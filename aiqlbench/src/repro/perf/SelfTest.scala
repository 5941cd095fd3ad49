package repro.perf

/** Checks of the harness's own arithmetic; `selftest.py` runs it. Exits
  * non-zero on the first wrong value.
  */
object SelfTest {

  private def check(what: String, got: Double, want: Double): Unit =
    if (math.abs(got - want) > 1e-9) {
      System.err.println(s"FAIL $what: got $got, want $want")
      sys.exit(1)
    }

  def main(args: Array[String]): Unit = {
    val tenths = (1 to 10).map(_.toDouble)
    // linear interpolation between closest ranks, rank p·(n−1)
    check("median of 1..10", Stats.median(tenths), 5.5)
    check("p90 of 1..10", Stats.quantile(tenths, 0.9), 9.1)
    check("p0 is the minimum", Stats.quantile(tenths, 0.0), 1.0)
    check("p100 is the maximum", Stats.quantile(tenths, 1.0), 10.0)
    check("p50 of one sample", Stats.quantile(Seq(7.0), 0.5), 7.0)
    check("median ignores order", Stats.median(Seq(9.0, 1.0, 5.0)), 5.0)
    check("p90 of 20 samples", Stats.quantile((1 to 20).map(_.toDouble), 0.9), 18.1)
    check("mean", Stats.mean(Seq(1.0, 2.0, 6.0)), 3.0)
    // union of job intervals inside a span
    check("disjoint intervals", Stats.unionLength(Seq((0.0, 1.0), (2.0, 3.0)), 0, 10), 2.0)
    check("overlapping intervals", Stats.unionLength(Seq((0.0, 2.0), (1.0, 3.0), (2.5, 4.0)), 0, 10), 4.0)
    check("intervals clipped to the span", Stats.unionLength(Seq((-5.0, 1.0), (9.0, 20.0)), 0, 10), 2.0)
    check("no intervals", Stats.unionLength(Nil, 0, 10), 0.0)
    val json = Json(Map("a\"b" -> Seq[Any](1, 2.5), "c" -> "x\ny"))
    if (json != """{"a\"b": [1, 2.5], "c": "x\ny"}""") {
      System.err.println(s"FAIL json: $json")
      sys.exit(1)
    }
    // hunt passes: the same shapes each time, a fresh sweep footprint per
    // sweep, and a clean end when the 4 hosts' footprints run out
    val hunt = new Hunt(0.002, 11)
    val passes = Iterator.continually(hunt.pass()).take(20).takeWhile(_.nonEmpty).map(_.get).toSeq
    check("hunt passes at 4 hosts", passes.size, 9)
    check("hunt shapes per pass", passes.map(_.map(_.family)).distinct.size, 1)
    val sweeps = passes.flatten.filter(_.family == "sweep").map(q => Bench.footprint(repro.core.Parser.parse(q.text)))
    check("distinct sweep footprints", sweeps.distinct.size, sweeps.size)
    println("harness arithmetic and hunt draws: ok")
  }
}
