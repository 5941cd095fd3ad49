package repro.core

import repro.{Oracle, SparkSpec, TestUtil}
import repro.baseline.NaiveSqlBaseline
import Ast._
import SqlSynthesizer._

class SqlSynthesizerSpec extends SparkSpec with EngineFixture {

  private val at = "(at \"08/01/2023\")"

  private def multi(src: String): MultiEventQuery =
    Parser.parse(src).asInstanceOf[MultiEventQuery]

  private val q1 = multi(
    s"""$at
       |agentid = 1
       |proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
       |proc p2 write file f1["%backup.dmp"] as evt2
       |with evt1 before evt2
       |return p1, p2, f1, evt2.ts""".stripMargin)

  test("multievent SQL declares one table alias per pattern") {
    val sql = SqlSynthesizer.multiEvent(q1, Spark).sql
    assert(sql.contains("events evt1"))
    assert(sql.contains("events evt2"))
  }

  test("multievent SQL repeats global constraints for every event") {
    val sql = SqlSynthesizer.multiEvent(q1, Spark).sql
    assert(sql.contains("evt1.agent_id IN (1)"))
    assert(sql.contains("evt2.agent_id IN (1)"))
    assert("evt1\\.ts >= ".r.findAllIn(sql).size == 1)
    assert("evt2\\.ts >= ".r.findAllIn(sql).size == 1)
  }

  test("multievent SQL carries pattern, join, and temporal predicates") {
    val sql = SqlSynthesizer.multiEvent(q1, Spark).sql
    assert(sql.contains("evt1.op = 'start'"))
    assert(sql.contains("evt1.subj_exe LIKE '%cmd.exe'"))
    assert(sql.contains("evt1.obj_pid = evt2.subj_pid"))
    assert(sql.contains("evt1.agent_id = evt2.agent_id"))
    assert(sql.contains("evt1.ts < evt2.ts"))
  }

  test("constraint count equals emitted atoms") {
    val s = SqlSynthesizer.multiEvent(q1, Spark)
    // 2 events × (2 ts + 1 agent) + 2×2 op/objtype + 3 filters + 2 join + 1 temporal
    assert(s.constraints == 6 + 4 + 3 + 2 + 1)
  }

  test("return shortcuts become aliased projections") {
    val sql = SqlSynthesizer.multiEvent(q1, Spark).sql
    assert(sql.contains("evt1.subj_exe AS p1"))
    assert(sql.contains("evt1.obj_exe AS p2")) // first occurrence of p2 is object of evt1
    assert(sql.contains("evt2.obj_path AS f1"))
    assert(sql.contains("evt2.ts AS evt2_ts"))
  }

  test("duckdb dialect casts numeric columns") {
    val sql = SqlSynthesizer.multiEvent(q1, DuckDb).sql
    assert(sql.contains("CAST(evt1.ts AS BIGINT)"))
    assert(sql.contains("CAST(evt1.agent_id AS BIGINT) IN (1)"))
    assert(!sql.contains("CAST(evt1.subj_exe"))
  }

  test("spark dialect executes equivalently to the optimized engine") {
    val baseline = new NaiveSqlBaseline(spark, fixtureDf)
    TestUtil.assertSameRows(engine().execute(q1), baseline.execute(q1), "synth-spark")
  }

  test("duckdb dialect executes equivalently via the oracle") {
    val res = engine().execute(q1)
    Oracle.assertEquivalent(res, SqlSynthesizer.multiEvent(q1, DuckDb).sql,
      "events" -> fixtureDf)
  }

  test("duckdb oracle validates an ip-join query") {
    val q = multi(s"""$at
                     |proc p1 write ip i as evt1
                     |proc p2["%bash%"] connect ip i as evt2
                     |with evt1 before evt2
                     |return p1, p2, i, evt1.amount""".stripMargin)
    Oracle.assertEquivalent(engine().execute(q),
      SqlSynthesizer.multiEvent(q, DuckDb).sql, "events" -> fixtureDf)
  }

  test("group-by aggregation synthesizes GROUP BY") {
    val q = multi(s"""$at
                     |proc p write ip i as evt
                     |return p, count(evt) as n
                     |group by p""".stripMargin)
    val sql = SqlSynthesizer.multiEvent(q, Spark).sql
    assert(sql.contains("COUNT(*) AS n"))
    assert(sql.contains("GROUP BY evt.subj_exe"))
    val baseline = new NaiveSqlBaseline(spark, fixtureDf)
    TestUtil.assertSameRows(engine().execute(q), baseline.execute(q), "synth-groupby")
  }

  test("dependency queries synthesize through their multievent form") {
    val d = Parser.parse(
      s"""$at
         |forward
         |proc p1["%osql.exe"] write file f as evt1
         |proc p2 read file f as evt2
         |return p1, p2, f""".stripMargin)
    val s = SqlSynthesizer.forQuery(d, Spark)
    assert(s.sql.contains("evt1.ts < evt2.ts"))
  }

  // ------------------------------------------------------------- anomaly

  private val anomalySrc =
    """(at "08/01/2023")
      |window = 1 min, step = 30 sec
      |proc p write ip i[dst_ip = "9.9.9.9"] as evt
      |return p, avg(evt.amount) as amt
      |group by p
      |having amt > 2 * (amt + amt[1] + amt[2]) / 3""".stripMargin
  private val qa = Parser.parse(anomalySrc).asInstanceOf[AnomalyQuery]

  test("windowsSpec covers the global range with the right step") {
    val ws = SqlSynthesizer.windowsSpec(qa)
    assert(ws.size == 2880) // one day / 30s
    assert(ws.head == (0L, Times.parseMs("08/01/2023"), Times.parseMs("08/01/2023") + 60000))
    assert(ws(1)._2 - ws.head._2 == 30000)
  }

  test("anomaly SQL uses a CTE with window containment and history joins") {
    val sql = SqlSynthesizer.anomaly(qa, Spark).sql
    assert(sql.contains("WITH agg AS"))
    assert(sql.contains("e.ts >= w.wstart"))
    assert(sql.contains("e.ts < w.wend"))
    assert(sql.contains("LEFT JOIN agg a1_amt ON a1_amt.win = a0.win - 1"))
    assert(sql.contains("LEFT JOIN agg a2_amt ON a2_amt.win = a0.win - 2"))
  }

  test("anomaly SQL executes equivalently to the anomaly engine") {
    val eng = new AnomalyEngine(loader())
    val baseline = new NaiveSqlBaseline(spark, fixtureDf)
    TestUtil.assertSameRows(eng.execute(qa), baseline.execute(qa), "synth-anomaly")
  }

  test("countAtoms counts comparison leaves") {
    val e = Bin("&&",
      Bin(">", VarRef("a"), NumLit("1")),
      Bin("||", Bin("=", VarRef("b"), NumLit("2")), Bin("<", VarRef("c"), NumLit("3"))))
    assert(SqlSynthesizer.countAtoms(e) == 3)
  }

  test("string literals are escaped") {
    val q = multi("""proc p["it's"] read file f as evt
                    |return p""".stripMargin)
    val sql = SqlSynthesizer.multiEvent(q, Spark).sql
    assert(sql.contains("'it''s'"))
  }
}
