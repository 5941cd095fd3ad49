package repro.core

import repro.{SparkSpec, TestUtil}
import repro.attack.AttackDataGen.RawEv
import repro.baseline.NaiveSqlBaseline
import repro.events.EventSchema
import Ast._
import Scope.SemanticError

/** The binding rule and output shape that both engines and the SQL
  * synthesizer share.
  */
class ScopeSpec extends SparkSpec {

  private def multi(src: String): MultiEventQuery = Parser.parse(src).asInstanceOf[MultiEventQuery]

  private val chain = multi(
    """proc p1 start proc p2 as evt1
      |proc p2 write file f as evt2
      |return p1""".stripMargin)
  private val scope = new Scope(chain.events)

  test("an entity variable binds to its first occurrence, in that role") {
    assert(scope.column(VarRef("p1")) == ("evt1", "subj_exe"))
    assert(scope.column(VarRef("p2")) == ("evt1", "obj_exe"))
    assert(scope.column(AttrRef("p2", "pid")) == ("evt1", "obj_pid"))
    assert(scope.column(VarRef("f")) == ("evt2", "obj_path"))
    assert(scope.column(AttrRef("evt2", "amount")) == ("evt2", "amount"))
  }

  test("an event alias wins over an entity variable of the same name") {
    val s = new Scope(multi("""proc evt start proc p as evt
                              |return evt.ts""".stripMargin).events)
    assert(s.column(AttrRef("evt", "ts")) == ("evt", "ts"))
    assertThrows[Attrs.ResolveError](s.column(AttrRef("evt", "pid")))
    assertThrows[SemanticError](s.column(VarRef("evt")))
  }

  test("bare event aliases, unknown variables and other leaves do not bind") {
    assertThrows[SemanticError](scope.column(VarRef("evt1")))
    assertThrows[SemanticError](scope.column(VarRef("q")))
    assertThrows[SemanticError](scope.column(HistRef("n", 1)))
  }

  test("filter leaves bind to their own entity, in its role") {
    val e = chain.events(1)
    assert(Scope.filterColumn(e.subj, "subj")(AttrRef("p2", "pid")) == "subj_pid")
    assert(Scope.filterColumn(e.obj, "obj")(AttrRef("f", "")) == "obj_path")
    assertThrows[PatternCompiler.CompileError](Scope.filterColumn(e.obj, "obj")(AttrRef("p2", "pid")))
  }

  test("the output shape names keys, aggregates and every return item") {
    val out = Scope.shape(multi("""proc p write ip i as evt
                                  |return p as exe, count(evt), sum(evt.amount) as total
                                  |group by p
                                  |having total > 1""".stripMargin))
    assert(out.keys == Seq("exe" -> VarRef("p")))
    assert(out.aggs.map(_._1) == Seq("count_evt", "total"))
    assert(out.returns.map(_._1) == Seq("exe", "count_evt", "total"))
    assert(out.item(VarRef("exe")) == ("exe" -> VarRef("p")))
    assertThrows[SemanticError](out.item(VarRef("p")))
  }

  /** Process 10 ("bash") starts a process with its own pid that runs
    * "python", as an exec does, and then a child with a new pid, as a fork
    * does: only the first is a self-start.
    */
  private lazy val selfStart = {
    import spark.implicits._
    def start(id: Long, ms: Long, objPid: Long, objExe: String) =
      RawEv(id, 1, Times.parseMs("08/01/2023") + ms, "start", 10, "bash", "proc", Some(objPid),
            Some(objExe), None, None, None, None, None, None, "2023-08-01")
    Seq(start(1, 1000, 10, "python"), start(2, 2000, 11, "ls")).toDS().toDF(EventSchema.columns: _*)
  }

  test("a variable that is subject and object of one pattern binds to the subject in both query classes") {
    val multiQ = """(at "08/01/2023")
                   |proc p start proc p as evt
                   |return p""".stripMargin
    val anomalyQ = """(at "08/01/2023")
                     |window = 1 hour, step = 1 hour
                     |proc p start proc p as evt
                     |return p, count(evt) as n
                     |group by p""".stripMargin
    val aiql = new Aiql(spark, InMemory(selfStart))
    assert(aiql.query(multiQ).collect().map(_.getString(0)).toSeq == Seq("bash"))
    assert(aiql.query(anomalyQ).collect().map(_.getString(1)).toSeq == Seq("bash"))
    for (q <- Seq(multiQ, anomalyQ))
      TestUtil.assertSameRows(aiql.query(q), new NaiveSqlBaseline(spark, selfStart).execute(q), q)
  }
}
