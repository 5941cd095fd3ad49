package repro.core

import repro.{Oracle, SparkSpec, TestUtil}
import repro.attack.AttackDataGen.RawEv
import repro.baseline.NaiveSqlBaseline
import repro.events.EventSchema
import Scope.SemanticError

class AnomalyEngineSpec extends SparkSpec {

  private val T0 = Times.parseMs("08/01/2023")

  /** p sends: 10 bytes at t=1s,11s,21s (steady), then 1000 bytes at t=31s.
    * q sends a constant 50 bytes every 10s. r sends 5, 60 and 70 bytes at
    * t=1s, 21s and 31s — nothing in the second 10 s — to a port not known.
    */
  private lazy val df = {
    import spark.implicits._
    def send(id: Long, ts: Long, exe: String, amt: Long, port: Option[Int] = Some(443)) =
      RawEv(id, 1, T0 + ts, "write", 10, exe, "ip", None, None, None,
            None, Some("9.9.9.9"), None, port, Some(amt), "2023-08-01")
    val evs = Seq(
      send(1, 1000, "p.exe", 10), send(2, 11000, "p.exe", 10), send(3, 21000, "p.exe", 10),
      send(4, 31000, "p.exe", 1000),
      send(11, 1000, "q.exe", 50), send(12, 11000, "q.exe", 50),
      send(13, 21000, "q.exe", 50), send(14, 31000, "q.exe", 50),
      send(21, 1000, "r.exe", 5, None), send(22, 21000, "r.exe", 60, None),
      send(23, 31000, "r.exe", 70, None))
    val d = evs.toDS().toDF(EventSchema.columns: _*).cache()
    d.count(); d
  }

  private def run(src: String): org.apache.spark.sql.DataFrame =
    new AnomalyEngine(new BaseLoader(spark, InMemory(df), AiqlConf())).execute(
      Parser.parse(src).asInstanceOf[Ast.AnomalyQuery])

  private val header = "(at \"08/01/2023\")\nwindow = 10 sec, step = 10 sec"

  test("tumbling windows aggregate per group") {
    val res = run(s"""$header
                     |proc p write ip i as evt
                     |return p, avg(evt.amount) as amt
                     |group by p""".stripMargin)
    assert(res.columns.toSeq == Seq("win", "p", "amt"))
    val byKey = res.collect().map(r => (r.getLong(0), r.getString(1)) -> r.getDouble(2)).toMap
    assert(byKey((0L, "p.exe")) == 10.0)
    assert(byKey((3L, "p.exe")) == 1000.0)
    assert(byKey((2L, "q.exe")) == 50.0)
  }

  test("sliding windows cover events multiple times") {
    val res = run(s"""(at "08/01/2023")
                     |window = 20 sec, step = 10 sec
                     |proc p["p.exe"] write ip i as evt
                     |return p, count(evt) as n
                     |group by p""".stripMargin)
    // event at t=11s is in windows starting 0s and 10s
    val n = res.collect().map(r => (r.getLong(0), r.getLong(2))).toMap
    assert(n(0L) == 2) // t=1s, t=11s
    assert(n(1L) == 2) // t=11s, t=21s
  }

  test("history reference compares against k windows earlier") {
    val res = run(s"""$header
                     |proc p write ip i as evt
                     |return p, avg(evt.amount) as amt
                     |group by p
                     |having amt > 2 * (amt + amt[1] + amt[2]) / 3""".stripMargin)
    val rows = res.collect().map(r => (r.getLong(0), r.getString(1))).toSet
    // only p.exe's spike window (w=3: 1000 > 2*(10+10)) qualifies;
    // q.exe is constant (50 > 2*100 is false)
    assert(rows == Set((3L, "p.exe")))
  }

  test("missing history window yields NULL and fails the predicate") {
    val res = run(s"""$header
                     |proc p write ip i as evt
                     |return p, avg(evt.amount) as amt
                     |group by p
                     |having amt > amt[1] - 1000000""".stripMargin)
    // window 0 has no predecessor -> excluded even though the arithmetic
    // would trivially hold
    assert(!res.collect().exists(_.getLong(0) == 0L))
  }

  test("having without history works as plain filter") {
    val res = run(s"""$header
                     |proc p write ip i as evt
                     |return p, avg(evt.amount) as amt
                     |group by p
                     |having amt > 100""".stripMargin)
    val rows = res.collect().map(r => (r.getLong(0), r.getString(1))).toSet
    assert(rows == Set((3L, "p.exe")))
  }

  test("count aggregate") {
    val res = run(s"""$header
                     |proc p write ip i as evt
                     |return p, count(evt) as n
                     |group by p""".stripMargin)
    assert(res.collect().forall(_.getLong(2) == 1L))
  }

  test("anomaly requires a time window") {
    assertThrows[SemanticError](run(
      """window = 10 sec, step = 10 sec
        |proc p write ip i as evt
        |return p, avg(evt.amount) as amt
        |group by p""".stripMargin))
  }

  test("anomaly requires an aggregate") {
    assertThrows[SemanticError](run(
      s"""$header
         |proc p write ip i as evt
         |return p
         |group by p""".stripMargin))
  }

  test("history reference must match an aggregate alias") {
    assertThrows[SemanticError](run(
      s"""$header
         |proc p write ip i as evt
         |return p, avg(evt.amount) as amt
         |group by p
         |having bogus[1] > 1""".stripMargin))
  }

  test("ungrouped plain return item is rejected") {
    assertThrows[SemanticError](run(
      s"""$header
         |proc p write ip i as evt
         |return p, i, avg(evt.amount) as amt
         |group by p""".stripMargin))
  }

  /** History references whose groups have gaps: r has no row in window 1,
    * so its window-2 `amt[1]` and window-3 `n[2]` are NULL, not the row
    * before; r's port is NULL, a key that equals no key of another window.
    */
  private val historyQueries = Seq(
    "a spike against the two windows before it" ->
      s"""$header
         |proc p write ip i as evt
         |return p, avg(evt.amount) as amt
         |group by p
         |having amt > 2 * (amt + amt[1] + amt[2]) / 3""".stripMargin,
    "a group with a missing middle window" ->
      s"""$header
         |proc p write ip i as evt
         |return p, avg(evt.amount) as amt
         |group by p
         |having amt > amt[1]""".stripMargin,
    "no group by" ->
      s"""$header
         |proc p write ip i as evt
         |return avg(evt.amount) as amt
         |having amt > amt[1]""".stripMargin,
    "two aliases" ->
      s"""$header
         |proc p write ip i as evt
         |return p, avg(evt.amount) as amt, count(evt) as n
         |group by p
         |having amt >= amt[1] && n >= n[2]""".stripMargin,
    "a NULL group key" ->
      s"""$header
         |proc p write ip i as evt
         |return i.dst_port as port, avg(evt.amount) as amt
         |group by i.dst_port
         |having amt >= amt[1]""".stripMargin,
  )

  private def assertMatchesBaseline(name: String, src: String): Unit = {
    val baseline = new NaiveSqlBaseline(spark, df)
    TestUtil.assertSameRows(run(src), baseline.execute(src), name)
  }

  test("engine matches naive SQL baseline (with history refs)") {
    val (name, src) = historyQueries.head
    assertMatchesBaseline(name, src)
  }

  for ((name, src) <- historyQueries.tail)
    test(s"engine matches naive SQL baseline (with history refs): $name") {
      assertMatchesBaseline(name, src)
    }

  test("a missing window or a NULL key reads NULL history, as the SQL and DuckDB do") {
    val expected = Map(
      "a group with a missing middle window" -> Seq(Seq("1000.000000", "p.exe", "3"),
                                                     Seq("70.000000", "r.exe", "3")),
      "two aliases" -> Seq(Seq("10.000000", "1", "p.exe", "2"), Seq("1000.000000", "1", "p.exe", "3"),
                           Seq("50.000000", "1", "q.exe", "2"), Seq("50.000000", "1", "q.exe", "3")),
      "a NULL group key" -> Seq(Seq("30.000000", "443", "1"), Seq("30.000000", "443", "2"),
                                Seq("525.000000", "443", "3")))
    val srcOf = historyQueries.toMap
    for ((name, rows) <- expected) assert(TestUtil.canon(run(srcOf(name))) == rows, name)

    val src = srcOf("a group with a missing middle window")
    val q = Parser.parse(src).asInstanceOf[Ast.AnomalyQuery]
    import spark.implicits._
    val wins = SqlSynthesizer.windowsSpec(q).toDF("win", "wstart", "wend")
    Oracle.assertEquivalent(run(src), SqlSynthesizer.anomaly(q, SqlSynthesizer.DuckDb).sql,
      "events" -> df, "wins" -> wins)
  }

  test("engine matches naive SQL baseline (sliding windows)") {
    val src = s"""(at "08/01/2023")
                 |window = 20 sec, step = 10 sec
                 |proc p write ip i as evt
                 |return p, avg(evt.amount) as amt, count(evt) as n
                 |group by p""".stripMargin
    val baseline = new NaiveSqlBaseline(spark, df)
    TestUtil.assertSameRows(run(src), baseline.execute(src), "anomaly-sliding")
  }
}
