package repro.core

import org.apache.spark.sql.DataFrame

import repro.{Oracle, SparkSpec, TestUtil}
import repro.baseline.NaiveSqlBaseline
import repro.events.EventStore
import Ast._
import Parser.ParseError
import Scope.SemanticError

class MultiEventEngineSpec extends SparkSpec with EngineFixture {

  private val at = "(at \"08/01/2023\")"

  test("single pattern with subject filter") {
    val df = run(s"""$at
                    |proc p["%osql.exe"] write file f as evt
                    |return p, f, evt.ts""".stripMargin)
    assert(df.columns.toSeq == Seq("p", "f", "evt_ts"))
    val rows = df.collect().map(r => (r.getString(0), r.getString(1))).toSet
    assert(rows == Set(("osql.exe", "/d/backup.dmp"), ("osql.exe", "/d/other.dmp")))
  }

  test("global agent constraint restricts the scan") {
    val df = run(s"""$at
                    |agentid = 2
                    |proc p["%osql.exe"] write file f as evt
                    |return p, f""".stripMargin)
    assert(df.count() == 1)
  }

  test("time window excludes events outside it") {
    val df = run("""(from "08/01/2023 00:00:01" to "08/01/2023 00:00:03")
                   |proc p write file f as evt
                   |return p, f, evt.ts""".stripMargin)
    // only ts 1000..2999 qualify: events 2 (t=2000) and 6 (t=2500)
    assert(df.count() == 2)
  }

  test("implicit attribute relationship joins the same file variable") {
    val df = run(s"""$at
                    |proc p1["%osql.exe"] write file f as evt1
                    |proc p2["%sbblv.exe"] read file f as evt2
                    |return p1, p2, f""".stripMargin)
    val rows = df.collect().map(r => (r.getString(0), r.getString(1), r.getString(2))).toSet
    assert(rows == Set(("osql.exe", "sbblv.exe", "/d/backup.dmp")))
  }

  test("process variable joins object-of-start to subject-of-write") {
    val df = run(s"""$at
                    |agentid = 1
                    |proc p1["%cmd.exe"] start proc p2 as evt1
                    |proc p2 write file f as evt2
                    |return p1, p2, f""".stripMargin)
    val rows = df.collect().map(r => (r.getString(1), r.getString(2))).toSet
    assert(rows == Set(("osql.exe", "/d/backup.dmp"), ("osql.exe", "/d/other.dmp")))
  }

  test("host-local entities force agent equality") {
    // without agent equality the agent-2 osql write (same pid 20) would join
    // the agent-1 start event
    val df = run(s"""$at
                    |proc p1["%cmd.exe"] start proc p2 as evt1
                    |proc p2 write file f["%backup.dmp"] as evt2
                    |with evt1 before evt2
                    |return evt1.agentid, p2, f""".stripMargin)
    val agents = df.collect().map(_.getInt(0)).toSet
    assert(agents == Set(1)) // agent-2 chain violates the temporal order
  }

  test("temporal relation filters out wrong-order matches") {
    val without = run(s"""$at
                         |proc p1["%cmd.exe"] start proc p2 as evt1
                         |proc p2 write file f["%backup.dmp"] as evt2
                         |return evt1.agentid, p2""".stripMargin)
    assert(without.collect().map(_.getInt(0)).toSet == Set(1, 2))
    val withRel = run(s"""$at
                         |proc p1["%cmd.exe"] start proc p2 as evt1
                         |proc p2 write file f["%backup.dmp"] as evt2
                         |with evt1 before evt2
                         |return evt1.agentid, p2""".stripMargin)
    assert(withRel.collect().map(_.getInt(0)).toSet == Set(1))
  }

  test("'after' is the mirror of before") {
    val df = run(s"""$at
                    |proc p1["%cmd.exe"] start proc p2 as evt1
                    |proc p2 write file f["%backup.dmp"] as evt2
                    |with evt2 after evt1
                    |return evt1.agentid""".stripMargin)
    assert(df.collect().map(_.getInt(0)).toSet == Set(1))
  }

  test("ip entities join across hosts (no agent equality)") {
    val df = run(s"""$at
                    |proc p1["%sbblv.exe"] write ip i as evt1
                    |proc p2["%bash%"] connect ip i as evt2
                    |return p1, p2, i, evt1.agentid, evt2.agentid""".stripMargin)
    val rows = df.collect()
    assert(rows.length == 1)
    assert(rows(0).getString(2) == "9.9.9.9")
    assert(rows(0).getInt(3) == 1 && rows(0).getInt(4) == 2)
  }

  test("four-event chain (paper Query 1 shape) finds exactly the attack") {
    val df = run(s"""$at
                    |proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
                    |proc p2 write file f1["%backup.dmp"] as evt2
                    |proc p3["%sbblv.exe"] read file f1 as evt3
                    |proc p3 write ip i1[dst_ip = "9.9.9.9"] as evt4
                    |with evt1 before evt2, evt2 before evt3, evt3 before evt4
                    |return p1, p2, f1, p3, i1""".stripMargin)
    val rows = df.collect()
    assert(rows.length == 1)
    assert(rows(0).toSeq == Seq("cmd.exe", "osql.exe", "/d/backup.dmp", "sbblv.exe", "9.9.9.9"))
  }

  test("unrelated patterns produce a cross product") {
    val df = run(s"""$at
                    |proc p1["%calc%"] start proc p2 as evt1
                    |proc p3["%bash%"] connect ip i as evt2
                    |return p1, p3""".stripMargin)
    // "%calc%" matches nothing as subject — empty × 1 = empty
    assert(df.count() == 0)
    val df2 = run(s"""$at
                     |proc p1 start proc p2["%calc%"] as evt1
                     |proc p3["%bash%"] connect ip i as evt2
                     |return p1, p3""".stripMargin)
    assert(df2.count() == 1) // 1 start-calc × 1 connect
  }

  test("syntax shortcuts: bare variables resolve to default attributes") {
    val df = run(s"""$at
                    |proc p["%sbblv.exe"] write ip i as evt
                    |return p, i, i.dst_port, p.pid""".stripMargin)
    assert(df.columns.toSeq == Seq("p", "i", "i_dst_port", "p_pid"))
    val r = df.collect()(0)
    assert(r.toSeq == Seq("sbblv.exe", "9.9.9.9", 443, 30L))
  }

  test("explicit return aliases are used") {
    val df = run(s"""$at
                    |proc p["%sbblv.exe"] write ip i as evt
                    |return p as malware, evt.amount as bytes""".stripMargin)
    assert(df.columns.toSeq == Seq("malware", "bytes"))
  }

  test("aggregation with group by") {
    val df = run(s"""$at
                    |proc p write ip i[dst_ip = "9.9.9.9"] as evt
                    |return p, count(evt) as n, sum(evt.amount) as total
                    |group by p""".stripMargin)
    val rows = df.collect().map(r => (r.getString(0), r.getLong(1), r.getLong(2))).toSet
    assert(rows == Set(("sbblv.exe", 1L, 500L), ("powershell.exe", 1L, 10L)))
  }

  test("same variable as subject and object of one pattern") {
    val df = run(s"""$at
                    |proc p start proc p as evt
                    |return p""".stripMargin)
    assert(df.count() == 0) // no self-start in the fixture
  }

  // ---------------------------------------------------------- validation

  test("duplicate event alias is rejected") {
    assertThrows[ParseError](run(
      s"""proc p read file f as evt
         |proc q write file f as evt
         |return p""".stripMargin))
  }

  test("kind-inconsistent variable is rejected") {
    assertThrows[ParseError](run(
      s"""proc p read file f as evt1
         |proc f read file g as evt2
         |return p""".stripMargin))
  }

  test("temporal relation on undeclared alias is rejected") {
    assertThrows[ParseError](run(
      s"""proc p read file f as evt1
         |with evt1 before evt9
         |return p""".stripMargin))
  }

  test("bare event alias in return is rejected") {
    assertThrows[SemanticError](run(
      s"""proc p read file f as evt
         |return evt""".stripMargin))
  }

  test("non-proc subject is rejected at compile") {
    assertThrows[PatternCompiler.CompileError](run(
      s"""file f read file g as evt
         |return f""".stripMargin))
  }

  test("aggregate without group by over plain items is rejected") {
    assertThrows[SemanticError](run(
      s"""proc p write ip i as evt
         |return p, count(evt) as n""".stripMargin))
  }

  test("history reference in a multievent having is rejected") {
    val q = s"""$at
               |proc p write ip i as evt
               |return p, count(evt) as n
               |group by p
               |having n > n[1]""".stripMargin
    assertThrows[SemanticError](run(q))
    assertThrows[SemanticError](SqlSynthesizer.forQuery(Parser.parse(q), SqlSynthesizer.Spark))
  }

  test("having without an aggregate return is rejected") {
    val q = s"""$at
               |proc p write ip i as evt
               |return p
               |group by p
               |having p > 1""".stripMargin
    assertThrows[SemanticError](run(q))
    assertThrows[SemanticError](SqlSynthesizer.forQuery(Parser.parse(q), SqlSynthesizer.Spark))
  }

  test("group by without an aggregate return is rejected") {
    val q = s"""$at
               |proc p write ip i as evt
               |return p
               |group by p""".stripMargin
    assertThrows[SemanticError](run(q))
    assertThrows[SemanticError](SqlSynthesizer.forQuery(Parser.parse(q), SqlSynthesizer.Spark))
  }

  test("a LIKE pattern on the left of = or != matches as on the right, as the SQL does") {
    for ((op, exe) <- Seq("=" -> "powershell.exe", "!=" -> "sbblv.exe")) {
      val q = s"""$at
                 |proc p["%powershell%" $op exe_name] write ip i as evt
                 |return p, i""".stripMargin
      val got = run(q)
      assert(TestUtil.canon(got) == Seq(Seq("9.9.9.9", exe)), op)
      TestUtil.assertSameRows(got, new NaiveSqlBaseline(spark, fixtureDf).execute(q), op)
    }
  }

  // -------------------------------------------------------------- having

  /** Grouped queries whose `having` drops some groups (or the one global
    * aggregate), with the canonical rows it keeps: on an aggregate alias,
    * on a group key with LIKE, and with no `group by`.
    */
  private val havingQueries = Seq(
    s"""$at
       |proc p write file f as evt
       |return f, count(evt) as n
       |group by f
       |having n > 1""".stripMargin -> Seq(Seq("/d/backup.dmp", "2")),
    s"""$at
       |proc p1["%cmd.exe"] start proc p2 as evt1
       |proc p2 write file f as evt2
       |return f, count(evt2) as n, sum(evt2.amount) as total
       |group by f
       |having f != "%backup%" && total >= 10""".stripMargin -> Seq(Seq("/d/other.dmp", "1", "10")),
    s"""$at
       |proc p write ip i as evt
       |return count(evt) as n, sum(evt.amount) as total
       |having total > 1000""".stripMargin -> Seq(),
  )

  private def assertHaving(got: DataFrame, q: String, rows: Seq[Seq[String]], events: DataFrame): Unit = {
    assert(TestUtil.canon(got) == rows)
    TestUtil.assertSameRows(got, new NaiveSqlBaseline(spark, events).execute(q), "having")
    Oracle.assertEquivalent(got, SqlSynthesizer.forQuery(Parser.parse(q), SqlSynthesizer.DuckDb).sql,
      "events" -> events)
  }

  for (((q, rows), k) <- havingQueries.zipWithIndex) {
    test(s"having keeps only the groups it accepts, as the SQL and DuckDB do: query $k") {
      assertHaving(run(q), q, rows, fixtureDf)
    }

    test(s"having keeps only the groups it accepts, as the SQL and DuckDB do (store-backed): query $k") {
      val aiql = new Aiql(spark, StorePath(fixtureStore))
      try assertHaving(aiql.query(q), q, rows, EventStore.read(spark, fixtureStore))
      finally aiql.close()
    }
  }

  // ------------------------------------------------- optimization configs

  private val configs = Seq(
    "full" -> AiqlConf(),
    "declared-order" -> AiqlConf(selectivityOrdering = false),
    "no-broadcast" -> AiqlConf(broadcastThreshold = -1),
    "all-off" -> AiqlConf(selectivityOrdering = false, broadcastThreshold = -1),
  )

  private val crossCheckQueries = Seq(
    s"""$at
       |proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
       |proc p2 write file f1["%backup.dmp"] as evt2
       |proc p3["%sbblv.exe"] read file f1 as evt3
       |proc p3 write ip i1[dst_ip = "9.9.9.9"] as evt4
       |with evt1 before evt2, evt2 before evt3, evt3 before evt4
       |return p1, p2, f1, p3, i1""".stripMargin,
    s"""$at
       |agentid in (1, 2)
       |proc p1["%cmd.exe"] start proc p2 as evt1
       |proc p2 write file f as evt2
       |with evt1 before evt2
       |return p1, p2, f, evt1.ts, evt2.ts""".stripMargin,
    s"""$at
       |proc p1 write ip i as evt1
       |proc p2 connect ip i as evt2
       |return p1, p2, i""".stripMargin,
  )

  for ((name, conf) <- configs; (q, k) <- crossCheckQueries.zipWithIndex) {
    test(s"optimizations preserve semantics: $name / query $k") {
      TestUtil.assertSameRows(run(q), run(q, conf), s"$name q$k")
    }
  }

  // ------------------------------------------------------ baseline parity

  for ((q, k) <- crossCheckQueries.zipWithIndex) {
    test(s"engine matches naive SQL baseline on fixture query $k") {
      val baseline = new NaiveSqlBaseline(spark, fixtureDf)
      TestUtil.assertSameRows(run(q), baseline.execute(q), s"baseline q$k")
    }
  }

  // ------------------------------------------------- driver-side joins

  /** The fixture in the partitioned store: its footprints are small, so
    * multi-pattern queries over them are joined in the driver.
    */
  private lazy val fixtureStore: String = {
    val dir = java.nio.file.Files.createTempDirectory("aiql-fixture-store").toString
    EventStore.write(fixtureDf, dir)
    dir
  }

  // The agent-2 copy of the chain writes before it starts, so each order of
  // the first two queries applies the temporal relation as a lower bound in
  // one and as an upper bound in the other; host locality must keep the
  // agent-1 start from joining agent 2's write, while ip joins cross hosts.
  private val twoAgentQueries = Seq(
    s"""$at
       |agentid in (1, 2)
       |proc p1["%cmd.exe"] start proc p2 as evt1
       |proc p2 write file f["%backup.dmp"] as evt2
       |with evt1 before evt2
       |return evt1.agentid, p2, f, evt1.ts, evt2.ts""".stripMargin,
    s"""$at
       |agentid in (1, 2)
       |proc p2 write file f["%backup.dmp"] as evt2
       |proc p1["%cmd.exe"] start proc p2 as evt1
       |with evt2 after evt1
       |return evt1.agentid, p2, f, evt1.ts, evt2.ts""".stripMargin,
    s"""$at
       |agentid in (1, 2)
       |proc p1["%sbblv.exe"] write ip i as evt1
       |proc p2["%bash%"] connect ip i as evt2
       |return p1, p2, i, evt1.agentid, evt2.agentid""".stripMargin,
  )
  // Day-wide copies of them follow: their by_day footprint is sized from
  // the store's catalog, so they are joined in the driver too.
  private val driverQueries = twoAgentQueries ++ Seq(
    crossCheckQueries(0).replace(at, s"$at\nagentid = 1"),
    crossCheckQueries(1),
  ) ++ twoAgentQueries.map { q =>
    val dayWide = q.replace("agentid in (1, 2)\n", "")
    require(dayWide != q, q)
    dayWide
  }

  for ((name, conf) <- Seq("full" -> AiqlConf(), "declared-order" -> AiqlConf(selectivityOrdering = false));
       (q, k) <- driverQueries.zipWithIndex) {
    test(s"driver-side joins match naive SQL baseline: $name / query $k") {
      val aiql = new Aiql(spark, StorePath(fixtureStore), conf)
      try {
        val got = aiql.query(q)
        assert(TestUtil.isDriverLocal(got), "expected a frame joined in the driver")
        TestUtil.assertSameRows(got, new NaiveSqlBaseline(spark, fixtureDf).execute(q), s"$name q$k")
      } finally aiql.close()
    }
  }
}
