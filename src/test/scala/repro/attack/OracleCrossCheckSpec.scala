package repro.attack

import java.nio.file.Files

import org.apache.spark.sql.DataFrame

import repro.{Oracle, SparkSpec}
import repro.core._
import repro.events.EventStore

/** Independent correctness oracle: the optimized engine's results are
  * diffed against DuckDB executing the synthesized (DuckDb-dialect)
  * equivalent SQL over the same rows — a wrong join condition, broken
  * temporal scheduling, or bad window math fails here even if both Spark
  * paths agreed with each other. The multievent queries run both in memory
  * and over the partitioned store, whose small pinned footprints are joined
  * in the driver.
  *
  * Kept at a tiny scale factor: the oracle ships every row over JDBC.
  */
class OracleCrossCheckSpec extends SparkSpec {

  private lazy val events: DataFrame = {
    val df = AttackDataGen.events(spark, sf = 0.0005, seed = 13).cache()
    df.count()
    df
  }
  private lazy val aiql = new Aiql(spark, InMemory(events))

  /** The events written to the store, and read back deduplicated. */
  private lazy val (storeAiql, stored) = {
    val dir = Files.createTempDirectory("aiql-oracle-store").toString
    EventStore.write(events, dir)
    (new Aiql(spark, StorePath(dir)), EventStore.read(spark, dir).cache())
  }

  private def duckSql(text: String): String =
    SqlSynthesizer.forQuery(Parser.parse(text), SqlSynthesizer.DuckDb).sql

  for (q <- InvestigationQueries.multievent) {
    test(s"${q.name}: engine output equals DuckDB on the equivalent SQL") {
      Oracle.assertEquivalent(aiql.query(q.aiql), duckSql(q.aiql), "events" -> events)
    }

    test(s"${q.name} (store-backed): engine output equals DuckDB on the equivalent SQL") {
      Oracle.assertEquivalent(storeAiql.query(q.aiql), duckSql(q.aiql), "events" -> stored)
    }
  }

  test("q20 (anomaly): engine output equals DuckDB on the equivalent SQL") {
    val q = InvestigationQueries.anomaly
    val parsed = Parser.parse(q.aiql).asInstanceOf[Ast.AnomalyQuery]
    val sql = SqlSynthesizer.anomaly(parsed, SqlSynthesizer.DuckDb).sql
    import spark.implicits._
    val wins = SqlSynthesizer.windowsSpec(parsed).toDF("win", "wstart", "wend")
    Oracle.assertEquivalent(aiql.query(q.aiql), sql, "events" -> events, "wins" -> wins)
  }
}
